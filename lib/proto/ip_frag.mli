(** The IP datagram layer shared by every stack — Plexus's [Ip_mgr], the
    DIGITAL UNIX baseline and the user-level library: input
    classification ({!receive}), output with id assignment and
    fragmentation ({!output}), and reassembly.  The stacks differ only in
    where they charge CPU and how they deliver.

    Fragmentation is zero-copy: fragments are {!Mbuf.sub} sub-chains
    sharing the datagram's buffers.  Reassembly copies each payload byte
    exactly once, into the completed datagram. *)

val fragment : mtu:int -> 'p Mbuf.t -> (int * bool * 'p Mbuf.t) list
(** [fragment ~mtu payload] is a list of
    [(frag_offset_in_8B_units, more_fragments, sub_chain)] covering
    [payload], each fitting in [mtu] with an IP header.  No payload byte
    is copied; the caller keeps ownership of [payload].
    @raise Invalid_argument if the MTU cannot carry 8 payload bytes. *)

type t
(** One host's IP state: the next datagram id and the reassembly
    contexts, keyed by (src, dst, proto, id). *)

val create : ?timeout:Sim.Stime.t -> unit -> t

val input : t -> now:Sim.Stime.t -> Ipv4.header -> _ View.t -> Mbuf.rw Mbuf.t option
(** Feed a fragment's payload (or a whole datagram); [Some datagram] when
    one completes.  A fragment that repeats a held offset, overlaps held
    data, ends past the datagram's known end or — being the last — ends
    before held data is dropped, so a datagram completes only when every
    byte is covered.  Chunk views are held until completion, so they must
    remain valid that long (the receive path keeps arriving frames
    alive).  Stale contexts are expired lazily against [now]. *)

val expire : t -> now:Sim.Stime.t -> int
(** Drop every pending reassembly whose deadline has passed, returning
    how many were expired (also counted in {!timeout_count}).  Called
    lazily by {!input}; callers that must bound how long a stalled
    fragment train pins its buffers (the chunks reference arriving
    frames) schedule it from a timer — see [Ip_mgr]. *)

val next_deadline : t -> Sim.Stime.t option
(** The earliest deadline among pending reassemblies, or [None] when
    nothing is pending — the instant a periodic expirer should arm its
    next one-shot timer for. *)

val pending_count : t -> int
val reassembled_count : t -> int
val timeout_count : t -> int

(** {1 The datagram layer} *)

type verdict =
  | Malformed  (** fails {!Ipv4.valid}: short, not IPv4 with IHL 5, a bad
                   header checksum, or [total_len] below the header or
                   past the frame *)
  | Not_ours  (** neither the host's address nor broadcast *)
  | Whole of Ipv4.header
      (** an unfragmented datagram; its payload is {!Ipv4.payload} of
          the view, {!Ipv4.payload_len} bytes *)
  | Held  (** a fragment, held for reassembly *)
  | Reassembled of Ipv4.header * Mbuf.rw Mbuf.t
      (** the fragment completed a datagram: its header (no fragment
          fields, [total_len] of the whole) and its payload *)

val receive : t -> now:Sim.Stime.t -> host:Ipaddr.t -> _ View.t -> verdict
(** Classify the IP datagram at the start of the view for [host],
    feeding fragments to reassembly ({!input}). *)

val packet_count : mtu:int -> int -> int
(** How many packets {!output} makes of a payload of this many bytes.
    @raise Invalid_argument as {!fragment} when it must fragment. *)

val output :
  t -> mtu:int -> proto:int -> src:Ipaddr.t -> dst:Ipaddr.t ->
  Mbuf.rw Mbuf.t -> (Mbuf.rw Mbuf.t -> unit) -> unit
(** Assign the next datagram id, encapsulate the payload — fragmenting
    it when it does not fit in [mtu] with its header — and hand each of
    the {!packet_count} packets to the callback, in order. *)
