(** IPv4 header codec and helpers. *)

val header_len : int
val default_ttl : int
val proto_icmp : int
val proto_tcp : int
val proto_udp : int

type header = {
  tos : int;
  total_len : int;
  id : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;  (** in 8-byte units *)
  ttl : int;
  proto : int;
  src : Ipaddr.t;
  dst : Ipaddr.t;
}

val make :
  ?tos:int -> ?id:int -> ?dont_fragment:bool -> ?more_fragments:bool ->
  ?frag_offset:int -> ?ttl:int -> proto:int -> src:Ipaddr.t -> dst:Ipaddr.t ->
  payload_len:int -> unit -> header

val parse : _ View.t -> header option
(** Decode (and structurally validate) the header at the start of the
    view.  Does not verify the checksum or the total length; see
    {!valid}. *)

val valid : _ View.t -> bool
(** What a receiver checks before it trusts the header at the start of
    the view: version 4 with IHL 5, a correct header checksum, and
    [header_len <= total_len <= View.length v]. *)

val decode : _ View.t -> header
(** Decode a header already found {!valid}, checking nothing again. *)

val payload_len : header -> int
(** The datagram's payload length by [total_len]: link-layer padding
    past it is not payload. *)

val payload : 'a View.t -> header -> 'a View.t
(** The payload of the {!valid} datagram at the start of the view,
    without padding. *)

val for_host : host:Ipaddr.t -> Ipaddr.t -> bool
(** Whether a datagram to this destination is for [host]: its own
    address or the limited broadcast. *)

type 'a route = { net : Ipaddr.t; mask_bits : int; link : 'a }
(** A subnet and the link that reaches it. *)

val route : 'a route list -> Ipaddr.t -> 'a route option
(** The first route whose subnet holds the destination, else the first
    route; [None] only when there are no routes. *)

val write : View.rw View.t -> header -> unit
(** Encode the header, computing its checksum. *)

val checksum_valid : _ View.t -> bool

val encapsulate : Mbuf.rw Mbuf.t -> header -> unit
(** Prepend an IP header to a payload packet. *)

val pseudo_header :
  src:Ipaddr.t -> dst:Ipaddr.t -> proto:int -> len:int -> View.ro View.t
(** The UDP/TCP checksum pseudo-header. *)

val pp_header : Format.formatter -> header -> unit
