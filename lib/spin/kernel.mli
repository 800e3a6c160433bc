(** A SPIN kernel instance (one per simulated host).

    Owns the host CPU, the event dispatcher, the interface namespace and
    the root protection domain; fronts the dynamic linker. *)

type t

val create :
  ?costs:Dispatcher.costs -> ?observe:bool -> ?flight_seed:int ->
  Sim.Engine.t -> name:string -> t
(** [create engine ~name] builds a kernel with its own CPU, dispatcher,
    metrics registry and trace endpoint.  [observe] (default true)
    attaches the registry to the dispatcher so per-event/per-handler
    metrics are published; [~observe:false] keeps the dispatcher
    detached — counters still accumulate privately, histograms are not
    recorded (the baseline for overhead benchmarks).  [flight_seed]
    seeds the trace endpoint's packet sampling decisions (default: a
    deterministic hash of [name]); sampling starts off — turn it on
    with [Observe.Flight.set_rate (flight t) n]. *)

val name : t -> string
val engine : t -> Sim.Engine.t
val cpu : t -> Sim.Cpu.t
val dispatcher : t -> Dispatcher.t
val now : t -> Sim.Stime.t

val registry : t -> Observe.Registry.t
(** The kernel's metrics registry (empty when created with
    [~observe:false]). *)

val trace : t -> Observe.Trace.t
(** The kernel's trace endpoint, shared with its dispatcher and
    devices; attach a sink with
    [Observe.Trace.set_sink (trace k) (Ring ...)] to record every
    span. *)

val flight : t -> Observe.Flight.t
(** The same endpoint as {!trace}, seen as the packet flight recorder.
    Its flight ring stays empty until [Observe.Flight.set_rate] sets a
    1-in-N sampling rate. *)

val introspect : t -> string
(** Human-readable dump of every event, its installed handlers (label,
    dispatch key, delivery kind) and their live counters. *)

val root_domain : t -> Domain.t
(** The domain containing every kernel interface; handed out sparingly. *)

val declare_interface : t -> string -> Interface.t
(** Find-or-create a named interface, visible in the root domain. *)

val find_interface : t -> string -> Interface.t option

val restricted_domain : t -> string -> string list -> Domain.t
(** A fresh domain exposing only the named (existing) interfaces.
    @raise Invalid_argument if an interface does not exist. *)

val link :
  ?policy:Verifier.policy ->
  t -> domain:Domain.t -> Extension.t -> (Linker.linked, Extension.failure) result

val replace :
  ?policy:Verifier.policy ->
  t -> domain:Domain.t -> Linker.linked -> Extension.t ->
  (Linker.linked * Linker.swap, Extension.failure) result
(** Hot-swap a linked extension on this kernel's dispatcher: see
    {!Linker.replace}. *)
