(* ARP for IPv4 over Ethernet: codec and a resolution cache. *)

let packet_len = 28

let op_request = 1
let op_reply = 2

type message = {
  op : int;
  sender_mac : Ether.Mac.t;
  sender_ip : Ipaddr.t;
  target_mac : Ether.Mac.t;
  target_ip : Ipaddr.t;
}

let well_formed v =
  View.length v >= packet_len
  && View.get_u16 v 0 = 1 (* htype ethernet *)
  && View.get_u16 v 2 = Ether.etype_ip
  && View.get_u8 v 4 = 6
  && View.get_u8 v 5 = 4

let decode v =
  {
    op = View.get_u16 v 6;
    sender_mac = Ether.Mac.of_int (Ether.get_u48 v 8);
    sender_ip = Ipaddr.of_int (View.get_u32 v 14);
    target_mac = Ether.Mac.of_int (Ether.get_u48 v 18);
    target_ip = Ipaddr.of_int (View.get_u32 v 24);
  }

let parse v = if well_formed v then Some (decode v) else None

let to_packet m =
  let pkt = Mbuf.alloc packet_len in
  let v = Mbuf.view pkt in
  View.set_u16 v 0 1;
  View.set_u16 v 2 Ether.etype_ip;
  View.set_u8 v 4 6;
  View.set_u8 v 5 4;
  View.set_u16 v 6 m.op;
  Ether.set_u48 v 8 (Ether.Mac.to_int m.sender_mac);
  View.set_u32 v 14 (Ipaddr.to_int m.sender_ip);
  Ether.set_u48 v 18 (Ether.Mac.to_int m.target_mac);
  View.set_u32 v 24 (Ipaddr.to_int m.target_ip);
  pkt

let request ~sender_mac ~sender_ip ~target_ip =
  {
    op = op_request;
    sender_mac;
    sender_ip;
    target_mac = Ether.Mac.of_int 0;
    target_ip;
  }

let reply_to m ~mac =
  {
    op = op_reply;
    sender_mac = mac;
    sender_ip = m.target_ip;
    target_mac = m.sender_mac;
    target_ip = m.sender_ip;
  }

module Cache = struct
  type entry = { mac : Ether.Mac.t; expires : Sim.Stime.t }

  type t = {
    entries : (Ipaddr.t, entry) Hashtbl.t;
    ttl : Sim.Stime.t;
    waiting : (Ipaddr.t, (Ether.Mac.t -> unit) list) Hashtbl.t;
  }

  let create ?(ttl = Sim.Stime.s 1200) () =
    { entries = Hashtbl.create 8; ttl; waiting = Hashtbl.create 4 }

  let lookup t ~now ip =
    match Hashtbl.find_opt t.entries ip with
    | Some e when Sim.Stime.compare now e.expires < 0 -> Some e.mac
    | Some _ ->
        Hashtbl.remove t.entries ip;
        None
    | None -> None

  let insert t ~now ip mac =
    Hashtbl.replace t.entries ip { mac; expires = Sim.Stime.add now t.ttl };
    match Hashtbl.find_opt t.waiting ip with
    | None -> ()
    | Some ks ->
        Hashtbl.remove t.waiting ip;
        List.iter (fun k -> k mac) (List.rev ks)

  let wait t ip k =
    let ks = Option.value (Hashtbl.find_opt t.waiting ip) ~default:[] in
    Hashtbl.replace t.waiting ip (k :: ks)

  (* Abandoning a resolution must drop its queued continuations, or a
     reply arriving long after the retry budget is spent would fire them
     — transmitting packets the sender gave up on ages ago. *)
  let cancel_waiters t ip =
    match Hashtbl.find_opt t.waiting ip with
    | None -> 0
    | Some ks ->
        Hashtbl.remove t.waiting ip;
        List.length ks

  let waiting_count t ip =
    match Hashtbl.find_opt t.waiting ip with
    | None -> 0
    | Some ks -> List.length ks

  let size t = Hashtbl.length t.entries
end

type answer = Ignored | Learned of Ipaddr.t | Reply of message

(* One ARP input for every stack: learn the sender, then owe a reply if
   the request is for us. *)
let answer cache ~now ~ip ~mac v =
  if not (well_formed v) then Ignored
  else
    let m = decode v in
    Cache.insert cache ~now m.sender_ip m.sender_mac;
    if m.op = op_request && Ipaddr.equal m.target_ip ip then
      Reply (reply_to m ~mac)
    else Learned m.sender_ip

let pp_message ppf m =
  Fmt.pf ppf "arp{%s %a(%a) -> %a}"
    (if m.op = op_request then "who-has" else "is-at")
    Ipaddr.pp m.sender_ip Ether.Mac.pp m.sender_mac Ipaddr.pp m.target_ip
