(** The per-packet recorder: structured trace spans with pluggable
    sinks, and a sampled ring of flight records in the same vocabulary.

    Every per-packet site — the dispatch path (raise, index lookup, guard
    evaluation, handler run, ephemeral commit/termination), the devices
    (ingress, admission queue wait, drops, wire faults), the protocol
    managers (delivery, drops) and the parallel datapath (handoffs) —
    emits one typed {!event}, stamped with the simulated time (integer
    nanoseconds), so a packet's path through the protocol graph can be
    reconstructed and asserted on in tests.

    A {!t} is a trace endpoint (one per kernel) with two outputs.  Its
    {!sink} sees every span while it is not [Null] (the default).  Its
    flight ring keeps the events of {e sampled} packets: a packet is
    sampled when its mark (the packet id stamped on the mbuf at ingress,
    {!Packet.Mbuf.mark}) is positive and the endpoint's sampling rate is
    on; sampling decisions and the read side live in {!Flight}.  A site
    makes one {!note} call with the packet's mark and guards event
    construction with [Trace.active] or {!samples}, so a disabled
    endpoint costs one field load and branch per site — nothing is
    allocated or formatted. *)

type event =
  | Raise of { event : string; candidates : int; indexed : bool }
      (** an event was raised; [candidates] guards will be evaluated *)
  | Index_lookup of { event : string; keys : int; candidates : int }
      (** the raise consulted the demux index instead of scanning *)
  | Guard_eval of { event : string; hid : int; label : string; hit : bool }
  | Handler_run of {
      event : string;
      hid : int;
      label : string;
      duration_ns : int;  (** modelled CPU cost charged for the run *)
    }
  | Ephemeral_commit of {
      event : string;
      hid : int;
      label : string;
      committed : int;
      total : int;
      duration_ns : int;
    }
  | Terminated of {
      event : string;
      hid : int;
      label : string;
      committed : int;
      total : int;
      duration_ns : int;  (** the expired budget *)
    }  (** an ephemeral program hit its budget and was cut off *)
  | Cache_hit of { event : string; hops : int; handlers : int }
      (** a raise was served from the flow-path cache: [hops] recorded
          raises were replayed delivering [handlers] handlers, with no
          demux or guard evaluation *)
  | Cache_invalidate of { event : string; reason : string }
      (** a cached flow path was discarded (stale generation, divergent
          replay, or a discarded recording) *)
  | Drop of { scope : string; reason : string }
      (** a frame or packet was discarded at [scope] (a device name or a
          protocol layer); [reason] names the cause, e.g.
          ["rx_ring_full"], ["admission_shed"], ["txq_full"] *)
  | Wire_fault of { link : string; fault : string; detail : string }
      (** an injected link fault fired: [fault] is the fault class
          (["loss"], ["burst_loss"], ["corrupt"], ["duplicate"],
          ["delay"]), [link] the transmitting device *)
  | Ingress of { dev : string }
      (** a frame arrived at device [dev]: a sampled packet's timeline
          starts here *)
  | Queue_wait of { dev : string }
      (** the admission poller picked up a frame deferred past the
          interrupt budget *)
  | Deliver of { scope : string }
      (** a packet reached its endpoint, e.g. ["udp:7"] *)
  | Handoff of {
      op : string;
          (** ["enqueue"] (frames pushed to a peer's SPSC ring),
              ["self_drain"] (producer drained its own ring because a
              peer's was full) or ["phase_b_drain"] (frames found during
              two-phase quiescence) *)
      from_domain : int;
      to_domain : int;
      frames : int;
    }  (** a cross-domain SPSC ring handoff in the parallel datapath *)

(** A flight record: one event of a sampled packet. *)
type record = {
  pkt : int;  (** packet id, as stamped on the mbuf (always > 0) *)
  domain : int;  (** domain that emitted the record *)
  at_ns : int;  (** that domain's virtual clock at emission *)
  dur_ns : int;
      (** a handler run's modelled duration; for raise, queue wait,
          delivery and drop, the latency since the packet's ingress,
          derived when the records are read ({!Flight.records}) *)
  event : event;
}

type span = { at_ns : int; event : event }

val kind : event -> string
(** Short tag: ["raise"], ["guard_eval"], ["handler_run"], ... *)

val scope : event -> string
(** The event/scope name the span belongs to, e.g. ["udp.PacketRecv"]. *)

val pp_event : Format.formatter -> event -> unit
val pp_span : Format.formatter -> span -> unit
val pp_ns : Format.formatter -> int -> unit

module Ring = Ring
(** The bounded buffer behind the [Ring] sink and the flight ring. *)

type sink =
  | Null  (** discard; the zero-cost default *)
  | Stderr  (** print each span as text *)
  | Ring of span Ring.t  (** retain the last N spans in memory *)

(** A trace endpoint.  The sampling fields are read and set through
    {!Flight}; emitters only call {!note}. *)
type t = {
  mutable sink : sink;
  seed : int;  (** seeds the sampling decisions ({!Flight.mark_for}) *)
  mutable rate : int;  (** 1-in-N packet sampling, 0 = off *)
  mutable domain : int;  (** stamped on every flight record *)
  mutable seen : int;  (** arrivals that rolled the sampling dice *)
  mutable sampled : int;  (** arrivals that were sampled *)
  flight : record Ring.t;
}

val create : ?sink:sink -> unit -> t
(** [sink] defaults to [Null]; sampling is off, with seed 0 and a
    4096-record flight ring ({!Flight.create} sets them). *)

val set_sink : t -> sink -> unit
val sink : t -> sink

val active : t -> bool
(** [true] unless the sink is [Null].  Guard span construction with this
    on hot paths. *)

val samples : t -> int -> bool
(** [samples t mark]: a {!note} with this mark reaches the flight ring
    (the mark is positive and sampling is on). *)

val emit : t -> span -> unit
(** Send a span to the sink. *)

val note : t -> traced:bool -> mark:int -> at_ns:int -> event -> unit
(** A site's one call per event: to the sink if [traced] (the site
    passes [active t], or [false] for events only sampled packets
    record), and to the flight ring as a {!record} if [samples t mark]. *)
