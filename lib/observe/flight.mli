(** Packet flight recorder: the sampled side of a trace endpoint.

    A flight recorder {e is} a {!Trace.t}: its sink sees every span,
    and its flight ring keeps the {!Trace.event}s of sampled packets as
    {!record}s.  This module makes the deterministic 1-in-N ingress
    sampling decisions that hand out packet ids (carried on the mbuf,
    [Packet.Mbuf.mark]) and reads the ring back as per-packet
    timelines.  The sampled set is a pure function of [(seed, rate)]
    and arrival ordinals, so a run is reproducible record for record.

    Latencies since ingress (raise, queue wait, delivery, drop) are not
    stored: {!records} derives them from the same packet's [Ingress]
    record in the same domain, so no per-packet state outlives the
    ring.  A record whose [Ingress] was overwritten reads 0.

    One endpoint per kernel (per domain in the parallel datapath);
    merge per-domain rings with {!merge_into} — records keep the domain
    that emitted them, so cross-domain timelines attribute each event
    to its home domain. *)

type t = Trace.t

type record = Trace.record = {
  pkt : int;
  domain : int;
  at_ns : int;
  dur_ns : int;
  event : Trace.event;
}

val create : ?capacity:int -> ?rate:int -> seed:int -> unit -> t
(** An endpoint with a [Null] sink.  [capacity] bounds the record ring
    (default 4096); [rate] is the 1-in-N sampling rate, 0 (default)
    meaning disabled. *)

val enabled : t -> bool
(** [rate t > 0]. *)

val rate : t -> int
val set_rate : t -> int -> unit
val seed : t -> int
val domain : t -> int

val set_domain : t -> int -> unit
(** Stamp subsequently emitted records with this domain id. *)

val mark_for : seed:int -> rate:int -> int -> int
(** [mark_for ~seed ~rate n] is the sampling decision for arrival
    ordinal [n] (1-based): the packet id ([n]) when sampled, else 0.
    Pure — the parallel datapath pre-computes marks from a frame plan
    so every domain agrees on the sampled set. *)

val admit : t -> int
(** Ingress decision: counts the arrival and returns the mark to stamp
    on the mbuf (0 = not sampled).  Equivalent to
    [mark_for ~seed ~rate seen] after incrementing [seen]. *)

val tally : t -> sampled:bool -> unit
(** Count one arrival whose sampling decision was made out of band
    (the parallel datapath derives marks from the frame plan via
    {!mark_for} instead of {!admit}).  Keeps seen/sampled meaningful
    per domain; totals sum under {!merge_into}. *)

val seen : t -> int
val sampled : t -> int
val capacity : t -> int
val length : t -> int

val dropped : t -> int
(** Records overwritten after the ring wrapped. *)

val clear : t -> unit

val records : t -> record list
(** Oldest retained record first, with since-ingress latencies
    derived. *)

val merge_into : into:t -> t -> unit
(** Fold [src]'s records (and seen/sampled/dropped totals) into [into],
    preserving each record's home domain. *)

val timelines : record list -> (int * record list) list
(** Group records per packet id (ascending); each packet's records keep
    emission order.  Cross-domain clocks are incomparable, so no
    timestamp sort is attempted. *)

val stage_name : Trace.event -> string
(** A record's stage: ["ingress"], ["raise"] (a dispatched or
    cache-replayed raise), ["handler"], ["queue_wait"], ["hop"],
    ["deliver"], ["drop"], else the event's {!Trace.kind}. *)

val pp_stage : Format.formatter -> Trace.event -> unit
val pp_record : Format.formatter -> record -> unit
val pp_timeline : Format.formatter -> int * record list -> unit
val records_to_json : record list -> string
val to_json : t -> string
