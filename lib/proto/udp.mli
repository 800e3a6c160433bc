(** UDP codec with optional checksum.

    Disabling the checksum is the paper's section 1.1 example of a
    legitimate application-specific protocol change. *)

val header_len : int

type header = { src_port : int; dst_port : int; len : int; cksum : int }

val parse : _ View.t -> header option

val encapsulate :
  ?checksum:bool -> Mbuf.rw Mbuf.t -> src:Ipaddr.t -> dst:Ipaddr.t ->
  src_port:int -> dst_port:int -> unit
(** Prepend a UDP header to a payload packet.  [~checksum:false] writes a
    zero checksum ("no checksum" per RFC 768). *)

val valid : src:Ipaddr.t -> dst:Ipaddr.t -> _ View.t -> bool
(** Length and checksum validation of a datagram view (header+payload). *)

val pp_header : Format.formatter -> header -> unit
