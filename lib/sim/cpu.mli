(** Simulated processor with CPU-time accounting.

    Protocol code in this reproduction executes instantaneously in OCaml
    but charges modelled CPU time here.  The CPU serializes charged work,
    so both packet latency (queueing + service) and processor utilization
    emerge from the cost model. *)

type t

type prio =
  | Interrupt  (** served before all thread work; used for device interrupts
                   and ephemeral handlers delegated to interrupt level *)
  | Thread     (** kernel threads and user processes *)

val create : Engine.t -> name:string -> t

val name : t -> string

val engine : t -> Engine.t
(** The engine this CPU charges time against. *)

val run : t -> ?prio:prio -> cost:Stime.t -> (unit -> unit) -> unit
(** [run t ~prio ~cost k] enqueues [cost] worth of work; [k] fires when the
    work completes.  Two-level priority service, non-preemptive: an
    interrupt-priority arrival waits for the item in service, then runs
    before any queued thread work. *)

val charge : t -> cost:Stime.t -> unit
(** Account [cost] of CPU time performed inline by the caller, without a
    work item or an engine event: the CPU is reserved until [now + cost]
    (stacking with any outstanding reservation), and pending or future
    {!run} work is served only after the reservation elapses.  Busy-time
    and utilization accounting include the charge. *)

val busy_time : t -> Stime.t
(** Total CPU time charged since creation. *)

val served : t -> int
(** Number of work items completed. *)

val reset_window : t -> unit
(** Start a fresh utilization accounting window at the current time. *)

val utilization : t -> float
(** Fraction of the current window the CPU spent busy, in [0, 1+)
    (can exceed 1 transiently only if work completed exactly at the
    window edge; practically bounded by 1). *)

val queue_depth : t -> int
(** Items waiting (not including the one in service). *)
