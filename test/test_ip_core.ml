(* The IP and ARP wire core shared by the three execution models —
   Plexus, the DIGITAL UNIX baseline and the user-level library — driven
   through each stack end to end: malformed datagrams are dropped and
   counted without harming later traffic, and a datagram of exactly the
   device MTU goes out whole while one byte more fragments. *)

let tc name f = Alcotest.test_case name `Quick f

let ip_a = Experiments.Common.ip_a
let ip_b = Experiments.Common.ip_b

(* One UDP path from A:5000 to B:7 over a fresh pair of hosts. *)
type rig = {
  engine : Sim.Engine.t;
  dev_a : Netsim.Dev.t;
  dev_b : Netsim.Dev.t;
  send : string -> unit;
  got : string list ref;  (* payloads B delivered, newest first *)
  malformed : unit -> int option;
      (* B's malformed-datagram count; [None] where the stack keeps none *)
  faults : unit -> int;  (* extension faults on B (Plexus only) *)
}

let plexus params =
  let p = Experiments.Common.plexus_pair params in
  let a = p.Experiments.Common.a and b = p.Experiments.Common.b in
  let udp_a = Plexus.Stack.udp a and udp_b = Plexus.Stack.udp b in
  let got = ref [] in
  let server = Experiments.Common.bind_exn udp_b ~owner:"srv" ~port:7 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
        got := View.to_string (Plexus.Pctx.view ctx) :: !got)
  in
  let client = Experiments.Common.bind_exn udp_a ~owner:"cli" ~port:5000 in
  {
    engine = p.Experiments.Common.engine;
    dev_a = Plexus.Ether_mgr.dev (Plexus.Stack.ether a);
    dev_b = Plexus.Ether_mgr.dev (Plexus.Stack.ether b);
    send = (fun data -> Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) data);
    got;
    malformed =
      (fun () ->
        Some (Plexus.Ip_mgr.counters (Plexus.Stack.ip b)).Plexus.Ip_mgr.bad_checksum);
    faults =
      (fun () ->
        Spin.Dispatcher.faults (Plexus.Graph.dispatcher (Plexus.Stack.graph b)));
  }

let ok = function Ok s -> s | Error _ -> Alcotest.fail "bind failed"

let du params =
  let p = Experiments.Common.du_pair params in
  let a = p.Experiments.Common.dua and b = p.Experiments.Common.dub in
  let dev s = List.hd (Netsim.Host.devices (Osmodel.Du_stack.host s)) in
  let got = ref [] in
  Osmodel.Du_stack.udp_set_recv
    (ok (Osmodel.Du_stack.udp_bind b ~port:7))
    (fun ~src:_ data -> got := data :: !got);
  let client = ok (Osmodel.Du_stack.udp_bind a ~port:5000) in
  {
    engine = p.Experiments.Common.du_engine;
    dev_a = dev a;
    dev_b = dev b;
    send = (fun data -> Osmodel.Du_stack.udp_sendto a client ~dst:(ip_b, 7) data);
    got;
    malformed =
      (fun () ->
        Some (Osmodel.Du_stack.counters b).Osmodel.Du_stack.bad_checksum);
    faults = (fun () -> 0);
  }

let ulib params =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine params ~a:("hostA", ip_a) ~b:("hostB", ip_b)
  in
  let a = Osmodel.Ulib.create ea.Netsim.Network.host in
  let b = Osmodel.Ulib.create eb.Netsim.Network.host in
  Osmodel.Ulib.prime_arp a ip_b (Netsim.Dev.mac eb.Netsim.Network.dev);
  Osmodel.Ulib.prime_arp b ip_a (Netsim.Dev.mac ea.Netsim.Network.dev);
  let got = ref [] in
  Osmodel.Ulib.udp_set_recv
    (ok (Osmodel.Ulib.udp_bind b ~port:7))
    (fun ~src:_ data -> got := data :: !got);
  let client = ok (Osmodel.Ulib.udp_bind a ~port:5000) in
  {
    engine;
    dev_a = ea.Netsim.Network.dev;
    dev_b = eb.Netsim.Network.dev;
    send = (fun data -> Osmodel.Ulib.udp_sendto a client ~dst:(ip_b, 7) data);
    got;
    malformed = (fun () -> None);
    faults = (fun () -> 0);
  }

let stacks = [ ("plexus", plexus); ("du", du); ("ulib", ulib) ]

(* ---- crafted datagrams ------------------------------------------------ *)

(* An IP datagram A -> B carrying [body], its header adjusted by [edit]
   and then checksummed, framed to B. *)
let crafted r ?(edit = Fun.id) body =
  let pkt = Mbuf.of_string body in
  Proto.Ipv4.encapsulate pkt
    (edit
       (Proto.Ipv4.make ~id:77 ~proto:Proto.Ipv4.proto_udp ~src:ip_a ~dst:ip_b
          ~payload_len:(Mbuf.length pkt) ()));
  Proto.Ether.encapsulate pkt
    {
      Proto.Ether.dst = Netsim.Dev.mac r.dev_b;
      src = Netsim.Dev.mac r.dev_a;
      etype = Proto.Ether.etype_ip;
    };
  pkt

(* Send the crafted frames, then one good datagram: the engine returns
   normally, no extension faults, and only the good datagram arrives. *)
let survives r frames =
  List.iter (Netsim.Dev.transmit r.dev_a) frames;
  Sim.Engine.run r.engine;
  Alcotest.(check int) "no extension fault" 0 (r.faults ());
  Alcotest.(check (list string)) "nothing delivered" [] !(r.got);
  r.send "still delivered";
  Sim.Engine.run r.engine;
  Alcotest.(check (list string)) "later datagram delivered"
    [ "still delivered" ] !(r.got)

(* total_len below the header or past the frame, as a whole datagram and
   as a fragment: each is dropped and counted malformed. *)
let total_len_dropped mk () =
  let r = mk (Netsim.Costs.ethernet ()) in
  let frames =
    List.map
      (fun (total_len, more_fragments) ->
        crafted r
          ~edit:(fun h ->
            {
              h with
              Proto.Ipv4.total_len = total_len h.Proto.Ipv4.total_len;
              more_fragments;
            })
          "malformed datagram")
      [
        ((fun _ -> 10), false);
        ((fun len -> len + 880), false);
        ((fun _ -> 10), true);
        ((fun len -> len + 880), true);
      ]
  in
  survives r frames;
  match r.malformed () with
  | Some n -> Alcotest.(check int) "each counted malformed" 4 n
  | None -> ()

(* A held chunk at bytes 16-24, then a last fragment ending at byte 13:
   reassembly must drop the clash, not blit past the datagram. *)
let clashing_fragments mk () =
  let r = mk (Netsim.Costs.ethernet ()) in
  let frag ~off8 ~more body =
    crafted r
      ~edit:(fun h ->
        { h with Proto.Ipv4.frag_offset = off8; more_fragments = more })
      body
  in
  survives r
    [ frag ~off8:2 ~more:true "ABCDEFGH"; frag ~off8:1 ~more:false "short" ]

(* ---- the MTU boundary --------------------------------------------------- *)

let pattern n = String.init n (fun i -> Char.chr (i mod 251))

let mtu_boundary mk params () =
  let r = mk params in
  let mtu = Netsim.Dev.mtu r.dev_a in
  let sent () = (Netsim.Dev.counters r.dev_a).Netsim.Dev.tx_packets in
  let send_and_count data =
    let before = sent () in
    r.send data;
    Sim.Engine.run r.engine;
    sent () - before
  in
  let fits = pattern (mtu - Proto.Ipv4.header_len - Proto.Udp.header_len) in
  let over = pattern (String.length fits + 1) in
  Alcotest.(check int) "IP packet of exactly the MTU: one frame" 1
    (send_and_count fits);
  Alcotest.(check int) "one byte more: two fragments" 2 (send_and_count over);
  Alcotest.(check bool) "payloads delivered byte-identical" true
    (List.rev !(r.got) = [ fits; over ])

let suite =
  [
    ( "ip_core.total_len",
      List.map
        (fun (name, mk) -> tc (name ^ " drops and counts") (total_len_dropped mk))
        stacks );
    ( "ip_core.reassembly",
      List.map
        (fun (name, mk) ->
          tc (name ^ " survives clashing fragments") (clashing_fragments mk))
        stacks );
    ( "ip_core.mtu_boundary",
      List.concat_map
        (fun (dname, params) ->
          List.map
            (fun (name, mk) ->
              tc (name ^ " over " ^ dname) (mtu_boundary mk (params ())))
            stacks)
        [
          ("ethernet", fun () -> Netsim.Costs.ethernet ());
          ("atm", fun () -> Netsim.Costs.atm ());
          ("t3", Netsim.Costs.t3);
        ] );
  ]
