(* UDP: header codec and datagram construction with the pseudo-header
   checksum.  The checksum can be disabled per datagram — the paper's
   motivating example of an application-specific protocol change
   (section 1.1): media applications that tolerate bit errors skip it. *)

let header_len = 8

type header = { src_port : int; dst_port : int; len : int; cksum : int }

let parse v =
  if View.length v < header_len then None
  else
    Some
      {
        src_port = View.get_u16 v 0;
        dst_port = View.get_u16 v 2;
        len = View.get_u16 v 4;
        cksum = View.get_u16 v 6;
      }

let write v { src_port; dst_port; len; cksum } =
  View.set_u16 v 0 src_port;
  View.set_u16 v 2 dst_port;
  View.set_u16 v 4 len;
  View.set_u16 v 6 cksum

(* Prepend a UDP header to a payload packet.  [checksum:false] writes 0,
   which RFC 768 defines as "no checksum".  The checksum folds over the
   chain's segments in place — a scatter-gather payload is neither pulled
   up nor copied. *)
let encapsulate ?(checksum = true) pkt ~src ~dst ~src_port ~dst_port =
  let len = header_len + Mbuf.length pkt in
  let v = Mbuf.prepend pkt header_len in
  write v { src_port; dst_port; len; cksum = 0 };
  if checksum then begin
    let pseudo = Ipv4.pseudo_header ~src ~dst ~proto:Ipv4.proto_udp ~len in
    let c =
      match Cksum.of_views (View.ro pseudo :: Mbuf.views (Mbuf.ro pkt)) with
      | 0 -> 0xffff (* RFC 768: transmitted as all-ones when it computes to 0 *)
      | c -> c
    in
    View.set_u16 v 6 c
  end

(* Validate a datagram (header + payload view).  A zero checksum field
   means the sender disabled checksumming. *)
let valid ~src ~dst v =
  match parse v with
  | None -> false
  | Some h ->
      h.len = View.length v
      && (h.cksum = 0
          ||
          let pseudo =
            Ipv4.pseudo_header ~src ~dst ~proto:Ipv4.proto_udp ~len:h.len
          in
          Cksum.of_views [ pseudo; View.ro v ] = 0)

let pp_header ppf h =
  Fmt.pf ppf "udp{%d -> %d len=%d}" h.src_port h.dst_port h.len
