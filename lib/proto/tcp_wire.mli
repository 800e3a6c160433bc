(** TCP wire format and sequence arithmetic. *)

val header_len : int

module Flags : sig
  type t = private int

  val fin : t
  val syn : t
  val rst : t
  val psh : t
  val ack : t
  val test : t -> t -> bool
  val ( + ) : t -> t -> t
  val pp : Format.formatter -> t -> unit
end

module Seq : sig
  type t = private int
  (** 32-bit sequence numbers with modular comparison. *)

  val of_int : int -> t
  val to_int : t -> int
  val add : t -> int -> t
  val diff : t -> t -> int
  val lt : t -> t -> bool
  val le : t -> t -> bool
  val gt : t -> t -> bool
  val ge : t -> t -> bool
  val max : t -> t -> t
end

type header = {
  src_port : int;
  dst_port : int;
  seq : Seq.t;
  ack : Seq.t;
  flags : Flags.t;
  window : int;
}

val parse : _ View.t -> (header * int) option
(** [(header, data_offset_bytes)] of the segment at the view's start. *)

val to_packet :
  src:Ipaddr.t -> dst:Ipaddr.t -> header -> string -> Mbuf.rw Mbuf.t
(** Encode a checksummed segment (header + payload). *)

val valid : src:Ipaddr.t -> dst:Ipaddr.t -> _ View.t -> bool

val pp_header : Format.formatter -> header -> unit
