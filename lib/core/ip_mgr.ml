(* The IP protocol manager: Plexus's placement of the shared datagram
   layer ([Proto.Ip_frag.receive]/[output], [Proto.Ipv4.route]).  It
   charges IP work on the host CPU at the graph's priority, raises
   accepted datagrams into the protocol graph, and gives the transport
   managers their send path. *)

type link = { ether : Ether_mgr.t; arp : Arp_mgr.t }

type counters = {
  mutable rx : int;
  mutable bad_checksum : int;
  mutable not_ours : int;
  mutable delivered : int;
  mutable fragments_out : int;
  mutable reassembled : int;
}

type t = {
  graph : Graph.t;
  node : Graph.node;
  host : Netsim.Host.t;
  costs : Netsim.Costs.t;
  mutable routes : link Proto.Ipv4.route list;
  frag : Proto.Ip_frag.t;
  mutable frag_timer : Sim.Engine.handle option;
  counters : counters;
}

let create graph =
  let host = Graph.host graph in
  {
    graph;
    node = Graph.node graph "ip";
    host;
    costs = Netsim.Host.costs host;
    routes = [];
    frag = Proto.Ip_frag.create ();
    frag_timer = None;
    counters =
      {
        rx = 0;
        bad_checksum = 0;
        not_ours = 0;
        delivered = 0;
        fragments_out = 0;
        reassembled = 0;
      };
  }

let node t = t.node
let counters t = t.counters
let host_ip t = Netsim.Host.ip t.host

let engine t = Netsim.Host.engine t.host
let cpu t = Netsim.Host.cpu t.host

let raise_recv t ctx = Spin.Dispatcher.raise (Graph.recv_event t.node) ctx

let frag_state t = t.frag

(* Scheduled reassembly expiry.  [Ip_frag.receive] only expires lazily —
   when *another* fragment arrives — so under loss a half-delivered
   fragment train would pin its chunk buffers forever.  A one-shot timer
   armed at the earliest pending deadline bounds that: it fires, expires
   what is stale, and re-arms only while reassemblies remain pending.
   It is cancelled the moment nothing is pending — never a standing
   tick, which would keep the event-driven engine from draining (or
   stretch every fragmented run out to the 30 s reassembly timeout). *)
let rec ensure_frag_timer t =
  if t.frag_timer = None then
    match Proto.Ip_frag.next_deadline t.frag with
    | None -> ()
    | Some deadline ->
        let now = Sim.Engine.now (engine t) in
        (* [expire] drops contexts strictly past their deadline; fire
           1 ns after it. *)
        let delay =
          if Sim.Stime.compare deadline now > 0 then
            Sim.Stime.add (Sim.Stime.sub deadline now) (Sim.Stime.ns 1)
          else Sim.Stime.ns 1
        in
        t.frag_timer <-
          Some
            (Sim.Engine.schedule_in (engine t) ~delay (fun () ->
                 t.frag_timer <- None;
                 let (_ : int) =
                   Proto.Ip_frag.expire t.frag
                     ~now:(Sim.Engine.now (engine t))
                 in
                 ensure_frag_timer t))

let settle_frag_timer t =
  if Proto.Ip_frag.pending_count t.frag = 0 then (
    match t.frag_timer with
    | Some h ->
        Sim.Engine.cancel h;
        t.frag_timer <- None
    | None -> ())
  else ensure_frag_timer t

(* Receive path: one handler per attached device, installed on the
   device node's event with an EtherType+address guard. *)
let rx t ctx =
  t.counters.rx <- t.counters.rx + 1;
  let v = View.shift (Pctx.view ctx) Proto.Ether.header_len in
  let with_l2 ctx =
    match Proto.Ether.parse (Pctx.view ctx) with
    | Some h2 -> Pctx.with_l2 ctx h2
    | None -> ctx
  in
  match
    Proto.Ip_frag.receive t.frag ~now:(Sim.Engine.now (engine t))
      ~host:(host_ip t) v
  with
  | Malformed -> t.counters.bad_checksum <- t.counters.bad_checksum + 1
  | Not_ours -> t.counters.not_ours <- t.counters.not_ours + 1
  | Whole h ->
      t.counters.delivered <- t.counters.delivered + 1;
      let ctx =
        Pctx.advance (with_l2 ctx) (Proto.Ether.header_len + Proto.Ipv4.header_len)
      in
      (* strip link-layer padding below the IP total length *)
      let l4_len = Proto.Ipv4.payload_len h in
      let ctx =
        if Pctx.payload_len ctx > l4_len then Pctx.with_limit ctx l4_len else ctx
      in
      raise_recv t (Pctx.with_ip ctx h)
  | Held -> ensure_frag_timer t
  | Reassembled (h, datagram) ->
      settle_frag_timer t;
      t.counters.reassembled <- t.counters.reassembled + 1;
      t.counters.delivered <- t.counters.delivered + 1;
      raise_recv t
        (Pctx.with_ip (Pctx.with_payload (with_l2 ctx) (Mbuf.ro datagram)) h)

let mac_guard dev ctx =
  match Proto.Ether.parse (Pctx.view ctx) with
  | None -> false
  | Some h ->
      Proto.Ether.Mac.equal h.Proto.Ether.dst (Netsim.Dev.mac dev)
      || Proto.Ether.Mac.equal h.Proto.Ether.dst Proto.Ether.Mac.broadcast

let attach t ether arp ~net ~mask_bits =
  t.routes <- t.routes @ [ { Proto.Ipv4.net; mask_bits; link = { ether; arp } } ];
  let guard ctx =
    Ether_mgr.etype_guard Proto.Ether.etype_ip ctx
    && mac_guard (Ether_mgr.dev ether) ctx
  in
  (* Cacheable: the guard reads only the EtherType and destination MAC,
     both part of the flow signature. *)
  let (_ : unit -> unit) =
    Ether_mgr.install_protocol ether ~child:"ip" ~guard
      ~keys:[ Filter.ether_type_key Proto.Ether.etype_ip ]
      ~cacheable:true ~cost:t.costs.Netsim.Costs.layer.ip_in (rx t)
  in
  ()

(* Send one already-formed IP packet out the right device. *)
let emit link ~prio ~dst pkt =
  Arp_mgr.resolve link.arp dst (fun mac ->
      Ether_mgr.send link.ether ~prio ~dst:mac ~etype:Proto.Ether.etype_ip pkt)

(* Transport send path: one [ip_out] charge per packet the payload
   becomes.  The source address is always the host's — transports cannot
   spoof it. *)
let send t ?prio:p ~proto ~dst payload =
  match Proto.Ipv4.route t.routes dst with
  | None -> invalid_arg "Ip_mgr.send: no route"
  | Some { link; _ } ->
      let prio = match p with Some p -> p | None -> Ether_mgr.prio link.ether in
      let mtu = Ether_mgr.mtu link.ether in
      let n = Proto.Ip_frag.packet_count ~mtu (Mbuf.length payload) in
      if n > 1 then t.counters.fragments_out <- t.counters.fragments_out + n;
      Sim.Cpu.run (cpu t) ~prio
        ~cost:(Sim.Stime.mul t.costs.Netsim.Costs.layer.ip_out n)
        (fun () ->
          Proto.Ip_frag.output t.frag ~mtu ~proto ~src:(host_ip t) ~dst payload
            (emit link ~prio ~dst))

(* Whether sending toward [dst] goes out a programmed-I/O device (the
   send-side integrated-layer-processing query). *)
let dst_touches_data t dst =
  match Proto.Ipv4.route t.routes dst with
  | Some { link; _ } -> Ether_mgr.touches_data link.ether
  | None -> false

(* Privileged: transmit a complete IP datagram (header included) toward
   [dst] without rewriting its source — granted only to the in-kernel
   forwarder (paper section 5.2), which redirects other hosts' packets. *)
let send_prepared t ?prio:p ~dst pkt =
  match Proto.Ipv4.route t.routes dst with
  | None -> invalid_arg "Ip_mgr.send_prepared: no route"
  | Some { link; _ } ->
      let prio = match p with Some p -> p | None -> Ether_mgr.prio link.ether in
      Sim.Cpu.run (cpu t) ~prio ~cost:t.costs.Netsim.Costs.layer.ip_out
        (fun () -> emit link ~prio ~dst pkt)
