(* User-level protocol libraries — the third execution model, from the
   paper's related work (section 6): "several projects have defined
   protocol structures allowing applications to use their own protocols
   in a safe manner within their address space" [TNML93, MB93].

   The protection story is the same as Plexus's (a trusted entity
   installs packet filters on the application's behalf; protocol code is
   the application's own), but the placement differs: the kernel only
   demultiplexes; every packet is copied to the application, which runs
   the *same* protocol code at user level — [Proto.Ip_frag.receive] and
   [output], the UDP codec — and re-enters the kernel to transmit; ARP
   ([Proto.Arp.answer]) stays in the kernel.  Only where CPU is charged
   ([urun], [krun], [Syscall]) and how datagrams reach sockets differ
   from Plexus and the DIGITAL UNIX stack.  Plexus's claim is that its
   strategies are "functionally identical to, although less costly
   than" this model — quantified by the Figure 5 extension in
   `experiments/fig5.ml`. *)

module T = Sim.Stime

(* The in-kernel packet filter: a per-socket predicate over the raw
   frame, BPF-style (cheap, runs at interrupt level). *)
let filter_cost = T.us 2

type counters = {
  mutable rx : int;
  mutable delivered : int;
  mutable filtered_out : int;
  mutable tx : int;
}

type usock = {
  u_port : int;
  mutable u_on_recv : src:Proto.Ipaddr.t * int -> string -> unit;
}

type t = {
  host : Netsim.Host.t;
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  costs : Netsim.Costs.t;
  dev : Netsim.Dev.t;
  arp : Proto.Arp.Cache.t;
  socks : (int, usock) Hashtbl.t;
  frag : Proto.Ip_frag.t;
  counters : counters;
}

let host_ip t = Netsim.Host.ip t.host
let counters t = t.counters

let urun t cost k = Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Thread ~cost k
let krun t cost k = Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Interrupt ~cost k

let cksum_cost t len =
  Netsim.Costs.per_byte t.costs.Netsim.Costs.layer.cksum_ns_per_byte len

(* ---- user-level receive path ------------------------------------------ *)

let deliver t (h : Proto.Ipv4.header) l4 =
  let lay = t.costs.Netsim.Costs.layer in
  urun t (T.add lay.udp_in (cksum_cost t (View.length l4))) (fun () ->
      if Proto.Udp.valid ~src:h.src ~dst:h.dst l4 then
        match Proto.Udp.parse l4 with
        | Some uh -> (
            match Hashtbl.find_opt t.socks uh.Proto.Udp.dst_port with
            | Some sock ->
                t.counters.delivered <- t.counters.delivered + 1;
                let data =
                  View.get_string l4 ~off:Proto.Udp.header_len
                    ~len:(View.length l4 - Proto.Udp.header_len)
                in
                urun t lay.app (fun () ->
                    sock.u_on_recv ~src:(h.src, uh.Proto.Udp.src_port) data)
            | None -> ())
        | None -> ())

(* Runs in the application's address space: the same protocol layers as
   the kernel implementations, charged at thread priority. *)
let user_process t (pkt : string) =
  let lay = t.costs.Netsim.Costs.layer in
  urun t lay.ether_in (fun () ->
      let v = View.of_string pkt in
      match Proto.Ether.parse v with
      | Some eh when eh.Proto.Ether.etype = Proto.Ether.etype_ip ->
          urun t lay.ip_in (fun () ->
              let ipv = View.shift v Proto.Ether.header_len in
              match
                Proto.Ip_frag.receive t.frag ~now:(Sim.Engine.now t.engine)
                  ~host:(host_ip t) ipv
              with
              | Whole h -> deliver t h (Proto.Ipv4.payload ipv h)
              | Reassembled (h, datagram) ->
                  deliver t h (View.ro (Mbuf.view datagram))
              | Malformed | Not_ours | Held -> ())
      | _ -> ())

(* ---- kernel side -------------------------------------------------------- *)

(* Frames the library must see: IP for this host (any fragment). *)
let for_library t v =
  match Proto.Ipv4.parse (View.shift v Proto.Ether.header_len) with
  | Some h -> Proto.Ipv4.for_host ~host:(host_ip t) h.Proto.Ipv4.dst
  | None -> false

let rx t (pkt : Mbuf.ro Mbuf.t) =
  t.counters.rx <- t.counters.rx + 1;
  (* in-kernel packet filter at interrupt level: does any socket's
     predicate accept this frame? (We model the filter's decision with
     the real port check; its cost is the flat BPF-interpretation fee.) *)
  krun t filter_cost (fun () ->
      let v = View.ro (Mbuf.view pkt) in
      match Proto.Ether.parse v with
      | Some eh when eh.Proto.Ether.etype = Proto.Ether.etype_arp -> (
          (* ARP stays in the kernel (it is address management, not an
             application protocol) *)
          match
            Proto.Arp.answer t.arp ~now:(Sim.Engine.now t.engine)
              ~ip:(host_ip t) ~mac:(Netsim.Dev.mac t.dev)
              (View.shift v Proto.Ether.header_len)
          with
          | Ignored | Learned _ -> ()
          | Reply reply ->
              let pkt = Proto.Arp.to_packet reply in
              Proto.Ether.encapsulate pkt
                {
                  Proto.Ether.dst = reply.Proto.Arp.target_mac;
                  src = Netsim.Dev.mac t.dev;
                  etype = Proto.Ether.etype_arp;
                };
              Netsim.Dev.transmit t.dev ~prio:Sim.Cpu.Interrupt pkt)
      | Some eh
        when eh.Proto.Ether.etype = Proto.Ether.etype_ip && for_library t v ->
          (* copy the whole frame out to the library and wake it *)
          let data = Mbuf.to_string pkt in
          Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Thread
            ~cost:
              (T.add
                 (T.add t.costs.Netsim.Costs.os.wakeup
                    t.costs.Netsim.Costs.os.ctx_switch)
                 (Syscall.copy_cost t.costs (String.length data)))
            (fun () -> user_process t data)
      | _ -> t.counters.filtered_out <- t.counters.filtered_out + 1)

let create host =
  let dev =
    match Netsim.Host.devices host with
    | d :: _ -> d
    | [] -> invalid_arg "Ulib.create: host has no devices"
  in
  let t =
    {
      host;
      engine = Netsim.Host.engine host;
      cpu = Netsim.Host.cpu host;
      costs = Netsim.Host.costs host;
      dev;
      arp = Proto.Arp.Cache.create ();
      socks = Hashtbl.create 8;
      frag = Proto.Ip_frag.create ();
      counters = { rx = 0; delivered = 0; filtered_out = 0; tx = 0 };
    }
  in
  Netsim.Dev.set_rx dev (fun ~polled:_ pkt -> rx t pkt);
  t

let prime_arp t ip mac =
  Proto.Arp.Cache.insert t.arp ~now:(Sim.Engine.now t.engine) ip mac

type error = [ `Port_in_use of int ]

let udp_bind t ~port =
  if Hashtbl.mem t.socks port then Error (`Port_in_use port)
  else begin
    let sock = { u_port = port; u_on_recv = (fun ~src:_ _ -> ()) } in
    Hashtbl.replace t.socks port sock;
    Ok sock
  end

let udp_set_recv sock fn = sock.u_on_recv <- fn

(* ---- user-level send path ----------------------------------------------- *)

let udp_sendto t sock ~dst:(dip, dport) data =
  t.counters.tx <- t.counters.tx + 1;
  let lay = t.costs.Netsim.Costs.layer in
  let len = String.length data in
  (* the library builds the whole datagram — and fragments it to the
     device MTU — in its own address space *)
  urun t
    (T.add (T.add lay.udp_out (cksum_cost t len)) (T.add lay.ip_out lay.ether_out))
    (fun () ->
      let datagram = Mbuf.of_string data in
      Proto.Udp.encapsulate datagram ~src:(host_ip t) ~dst:dip
        ~src_port:sock.u_port ~dst_port:dport;
      let mac =
        match Proto.Arp.Cache.lookup t.arp ~now:(Sim.Engine.now t.engine) dip with
        | Some mac -> mac
        | None -> Proto.Ether.Mac.broadcast (* experiments prime the cache *)
      in
      Proto.Ip_frag.output t.frag ~mtu:(Netsim.Dev.mtu t.dev)
        ~proto:Proto.Ipv4.proto_udp ~src:(host_ip t) ~dst:dip datagram
        (fun pkt ->
          Proto.Ether.encapsulate pkt
            { Proto.Ether.dst = mac; src = Netsim.Dev.mac t.dev;
              etype = Proto.Ether.etype_ip };
          (* ...each packet crosses into the kernel, which only drives
             the device *)
          Syscall.enter t.cpu t.costs ~len:(Mbuf.length pkt) (fun () ->
              Netsim.Dev.transmit t.dev ~prio:Sim.Cpu.Interrupt pkt)))
