(* IPv4: header codec, fragmentation fields, protocol numbers and the
   routing decision.  No options are supported (IHL is always 5),
   matching the traffic the paper's experiments generate. *)

let header_len = 20
let default_ttl = 64

(* Protocol numbers *)
let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

type header = {
  tos : int;
  total_len : int;
  id : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int; (* in 8-byte units *)
  ttl : int;
  proto : int;
  src : Ipaddr.t;
  dst : Ipaddr.t;
}

let make ?(tos = 0) ?(id = 0) ?(dont_fragment = false) ?(more_fragments = false)
    ?(frag_offset = 0) ?(ttl = default_ttl) ~proto ~src ~dst ~payload_len () =
  {
    tos;
    total_len = header_len + payload_len;
    id;
    dont_fragment;
    more_fragments;
    frag_offset;
    ttl;
    proto;
    src;
    dst;
  }

(* Version 4, IHL 5. *)
let well_formed v = View.length v >= header_len && View.get_u8 v 0 = 0x45

let decode v =
  let flags_frag = View.get_u16 v 6 in
  {
    tos = View.get_u8 v 1;
    total_len = View.get_u16 v 2;
    id = View.get_u16 v 4;
    dont_fragment = flags_frag land 0x4000 <> 0;
    more_fragments = flags_frag land 0x2000 <> 0;
    frag_offset = flags_frag land 0x1fff;
    ttl = View.get_u8 v 8;
    proto = View.get_u8 v 9;
    src = Ipaddr.of_int (View.get_u32 v 12);
    dst = Ipaddr.of_int (View.get_u32 v 16);
  }

let parse v = if well_formed v then Some (decode v) else None

let write v h =
  View.set_u8 v 0 0x45;
  View.set_u8 v 1 h.tos;
  View.set_u16 v 2 h.total_len;
  View.set_u16 v 4 h.id;
  let flags_frag =
    (if h.dont_fragment then 0x4000 else 0)
    lor (if h.more_fragments then 0x2000 else 0)
    lor (h.frag_offset land 0x1fff)
  in
  View.set_u16 v 6 flags_frag;
  View.set_u8 v 8 h.ttl;
  View.set_u8 v 9 h.proto;
  View.set_u16 v 10 0;
  View.set_u32 v 12 (Ipaddr.to_int h.src);
  View.set_u32 v 16 (Ipaddr.to_int h.dst);
  let c = Cksum.of_view (View.ro (View.sub v ~off:0 ~len:header_len)) in
  View.set_u16 v 10 c

let checksum_valid v =
  View.length v >= header_len
  && Cksum.valid (View.sub (View.ro v) ~off:0 ~len:header_len)

(* Everything a receiver checks before it trusts a header: structure,
   checksum, and a total length that covers the header and fits in what
   arrived (the rest is link-layer padding). *)
let valid v =
  well_formed v && checksum_valid v
  &&
  let total_len = View.get_u16 v 2 in
  total_len >= header_len && total_len <= View.length v

let payload_len h = h.total_len - header_len
let payload v h = View.sub v ~off:header_len ~len:(payload_len h)

let for_host ~host dst =
  Ipaddr.equal dst host || Ipaddr.equal dst Ipaddr.broadcast

type 'a route = { net : Ipaddr.t; mask_bits : int; link : 'a }

(* The first route whose subnet holds [dst]; else the first route, the
   default. *)
let route routes dst =
  match
    List.find_opt
      (fun r -> Ipaddr.in_subnet dst ~net:r.net ~mask_bits:r.mask_bits)
      routes
  with
  | Some _ as r -> r
  | None -> ( match routes with r :: _ -> Some r | [] -> None)

(* Push an IP header onto a packet whose current contents are the
   payload. *)
let encapsulate pkt h =
  let v = Mbuf.prepend pkt header_len in
  write v h

(* The 12-byte pseudo-header used by UDP and TCP checksums. *)
let pseudo_header ~src ~dst ~proto ~len =
  let v = View.create 12 in
  View.set_u32 v 0 (Ipaddr.to_int src);
  View.set_u32 v 4 (Ipaddr.to_int dst);
  View.set_u8 v 8 0;
  View.set_u8 v 9 proto;
  View.set_u16 v 10 len;
  View.ro v

let pp_header ppf h =
  Fmt.pf ppf "ip{%a -> %a proto=%d len=%d id=%d%s}" Ipaddr.pp h.src Ipaddr.pp
    h.dst h.proto h.total_len h.id
    (if h.more_fragments || h.frag_offset > 0 then
       Printf.sprintf " frag=%d%s" h.frag_offset
         (if h.more_fragments then "+" else "")
     else "")
