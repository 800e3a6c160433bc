(* Tests for the per-flow fast-path cache and the batched delivery path:
   record/replay equivalence, generation-counter invalidation, recording
   re-entrancy, the path_cache counters, Pool slot batching, device batch
   delivery, and the Cpu.charge reservation the synchronous replay uses. *)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t
let us = Sim.Stime.us

module D = Spin.Dispatcher

(* A two-level chain: [root] has a forwarder that raises [mid]; handlers
   on both log (tag, payload).  The root's flow signature is the
   payload's low bits, and every guard reads only those bits, so equal
   signatures are indistinguishable to guards — the cacheability
   contract. *)
type side = {
  engine : Sim.Engine.t;
  d : D.t;
  root : int D.event;
  mid : int D.event;
  log : (int * int) list ref;
}

let mk_side ~flowcache =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"cpu" in
  let d = D.create ~cpu ~costs:D.default_costs () in
  D.set_flow_cache d flowcache;
  let root = D.event d "root" in
  let mid = D.event d "mid" in
  D.set_sigfn root (fun v -> Some (string_of_int (v land 3)));
  let log = ref [] in
  let (_ : unit -> unit) =
    D.install root ~cacheable:true ~label:"fwd" ~cost:(us 1) (fun v ->
        log := (-1, v) :: !log;
        D.raise mid v)
  in
  { engine = e; d; root; mid; log }

let install_logger ?(cacheable = true) ?guard s ev tag =
  D.install ev ?guard ~cacheable
    ~label:(Printf.sprintf "h%d" tag)
    ~cost:(us 1)
    (fun v -> s.log := (tag, v) :: !(s.log))

let send s v =
  D.raise s.root v;
  Sim.Engine.run s.engine

let delivered s = List.rev !(s.log)

(* ---- record / hit / invalidate -------------------------------------- *)

let hit_replays_same_chain () =
  let s = mk_side ~flowcache:true in
  let (_ : unit -> unit) = install_logger s s.mid 1 in
  let (_ : unit -> unit) =
    install_logger s s.mid 2 ~guard:(fun v -> v land 3 = 0)
  in
  send s 0;
  Alcotest.(check int) "first raise misses" 1 (D.path_cache_misses s.d);
  Alcotest.(check int) "entry committed" 1 (D.cache_entries s.root);
  send s 4;
  (* same signature class: replay *)
  send s 8;
  Alcotest.(check int) "two hits" 2 (D.path_cache_hits s.d);
  Alcotest.(check int) "no further misses" 1 (D.path_cache_misses s.d);
  Alcotest.(check (list (pair int int)))
    "same handler sequence per packet"
    [ (-1, 0); (1, 0); (2, 0); (-1, 4); (1, 4); (2, 4); (-1, 8); (1, 8); (2, 8) ]
    (delivered s)

let disabled_by_default () =
  let s = mk_side ~flowcache:false in
  let (_ : unit -> unit) = install_logger s s.mid 1 in
  send s 0;
  send s 0;
  Alcotest.(check int) "no entries" 0 (D.cache_entries s.root);
  Alcotest.(check int) "no hits" 0 (D.path_cache_hits s.d);
  Alcotest.(check int) "no misses counted while disabled" 0
    (D.path_cache_misses s.d)

let uninstall_invalidates_before_next_packet () =
  let s = mk_side ~flowcache:true in
  let (_ : unit -> unit) = install_logger s s.mid 1 in
  let un2 = install_logger s s.mid 2 in
  send s 0;
  send s 0;
  Alcotest.(check int) "warm hit" 1 (D.path_cache_hits s.d);
  un2 ();
  (* mid's generation moved: the cached chain must not fire h2 *)
  s.log := [];
  send s 0;
  Alcotest.(check (list (pair int int)))
    "uninstalled handler no longer delivered"
    [ (-1, 0); (1, 0) ]
    (delivered s);
  Alcotest.(check int) "stale entry counted as invalidation" 1
    (D.path_cache_invalidations s.d);
  Alcotest.(check int) "stale lookup is a miss (re-records)" 2
    (D.path_cache_misses s.d);
  send s 0;
  Alcotest.(check int) "re-recorded chain hits again" 2
    (D.path_cache_hits s.d)

let touch_invalidates () =
  let s = mk_side ~flowcache:true in
  let (_ : unit -> unit) = install_logger s s.mid 1 in
  send s 0;
  send s 0;
  Alcotest.(check int) "warm hit" 1 (D.path_cache_hits s.d);
  D.touch s.mid;
  send s 0;
  Alcotest.(check int) "touch forces a miss" 2 (D.path_cache_misses s.d);
  Alcotest.(check int) "touch counted as invalidation" 1
    (D.path_cache_invalidations s.d)

(* A handler that churns the graph *while the chain is being recorded*
   must not let a stale chain commit (the recording is re-validated at
   delivery end — the re-entrancy fix). *)
let churn_during_recording_discards_entry () =
  let s = mk_side ~flowcache:true in
  let un_victim = ref (fun () -> ()) in
  let first = ref true in
  let (_ : unit -> unit) =
    D.install s.mid ~cacheable:true ~label:"churner" ~cost:(us 1) (fun v ->
        s.log := (1, v) :: !(s.log);
        if !first then begin
          first := false;
          !un_victim ()
        end)
  in
  un_victim := install_logger s s.mid 2;
  send s 0;
  Alcotest.(check int) "churned recording not committed" 0
    (D.cache_entries s.root);
  Alcotest.(check int) "discard counted as invalidation" 1
    (D.path_cache_invalidations s.d);
  (* next packet records the post-churn chain and then replays it.  (On
     the first packet the victim never fires at all: it was uninstalled
     before its queued delivery ran, which graph dispatch also honors.) *)
  send s 0;
  send s 0;
  Alcotest.(check int) "clean re-record then hit" 1 (D.path_cache_hits s.d);
  Alcotest.(check (list (pair int int)))
    "post-churn chain stable"
    [ (-1, 0); (1, 0); (-1, 0); (1, 0); (-1, 0); (1, 0) ]
    (delivered s)

(* A handler that uninstalls a *later* hop's handler mid-replay: the
   stale hop is detected when the nested raise tries to consume it, the
   entry is dropped, and the remainder falls back to graph dispatch —
   the uninstalled handler must not run. *)
let churn_during_replay_diverges_safely () =
  let s = mk_side ~flowcache:true in
  let leaf = D.event s.d "leaf" in
  let un_victim = ref (fun () -> ()) in
  let armed = ref false in
  let (_ : unit -> unit) =
    D.install s.mid ~cacheable:true ~label:"fwd2" ~cost:(us 1) (fun v ->
        s.log := (1, v) :: !(s.log);
        if !armed then begin
          armed := false;
          !un_victim ()
        end;
        D.raise leaf v)
  in
  un_victim :=
    D.install leaf ~cacheable:true ~label:"victim" ~cost:(us 1) (fun v ->
        s.log := (2, v) :: !(s.log));
  send s 0;
  send s 0;
  Alcotest.(check int) "warm hit" 1 (D.path_cache_hits s.d);
  armed := true;
  s.log := [];
  send s 0;
  Alcotest.(check (list (pair int int)))
    "victim does not fire after mid-replay uninstall"
    [ (-1, 0); (1, 0) ]
    (delivered s);
  Alcotest.(check int) "divergence drops the entry" 0 (D.cache_entries s.root);
  send s 0;
  send s 0;
  Alcotest.(check int) "re-records and hits again" 3 (D.path_cache_hits s.d)

(* ---- replay runs the same handler body as graph delivery ------------- *)

(* A handler that throws on a replayed run is contained exactly as on
   graph delivery: counted as a fault and uninstalled.  Its uninstall
   moves the event's generation, so the next packet finds the entry
   stale and records the chain afresh. *)
let replayed_fault_uninstalls () =
  let s = mk_side ~flowcache:true in
  let runs = ref 0 in
  let (_ : unit -> unit) =
    D.install s.mid ~cacheable:true ~label:"thrower" ~cost:(us 1) (fun _ ->
        incr runs;
        if !runs = 3 then failwith "boom")
  in
  send s 0;
  send s 0;
  send s 0;
  Alcotest.(check int) "third run was a replay" 2 (D.path_cache_hits s.d);
  Alcotest.(check int) "one fault" 1 (D.faults s.d);
  Alcotest.(check int) "thrower uninstalled" 0 (D.handler_count s.mid);
  send s 0;
  Alcotest.(check int) "stale entry invalidated" 1
    (D.path_cache_invalidations s.d);
  Alcotest.(check int) "and re-recorded" 2 (D.path_cache_misses s.d);
  Alcotest.(check int) "no further runs" 3 !runs

(* The quarantine check follows every run, replayed ones included: 2 us
   per run against 5 us per window crosses on the third run, the second
   replay. *)
let replayed_run_quarantined () =
  let s = mk_side ~flowcache:true in
  D.set_quarantine s.mid
    (Some
       (Spin.Verifier.quarantine ~window_ns:1_000_000_000 ~max_cpu_ns:5_000 ()));
  let runs = ref 0 in
  let (_ : unit -> unit) =
    D.install s.mid ~cacheable:true ~label:"hog" ~cost:(us 2) (fun _ ->
        incr runs)
  in
  send s 0;
  send s 0;
  Alcotest.(check int) "two runs stay within the window" 0 (D.quarantines s.d);
  send s 0;
  Alcotest.(check int) "third run was a replay" 2 (D.path_cache_hits s.d);
  Alcotest.(check int) "evicted on it" 1 (D.quarantines s.d);
  Alcotest.(check int) "hog gone" 0 (D.handler_count s.mid);
  send s 0;
  Alcotest.(check int) "no further runs" 3 !runs

(* A warm hit emits one span for the whole chain: no per-handler
   [Handler_run], no demux or guard spans. *)
let warm_hit_emits_one_span () =
  let s = mk_side ~flowcache:true in
  let (_ : unit -> unit) = install_logger s s.mid 1 in
  let ring = Observe.Trace.Ring.create ~capacity:64 () in
  Observe.Trace.set_sink (D.trace s.d) (Observe.Trace.Ring ring);
  send s 0;
  send s 0;
  Observe.Trace.Ring.clear ring;
  send s 0;
  Alcotest.(check (list string))
    "exactly one cache_hit span" [ "cache_hit" ]
    (List.map
       (fun sp -> Observe.Trace.kind sp.Observe.Trace.event)
       (Observe.Trace.Ring.to_list ring))

(* ---- qcheck: cached == uncached under random churn ------------------- *)

(* Random interleavings of install / uninstall / touch / raise applied
   to two identical dispatcher graphs, flow cache on and off: the
   delivery logs must be identical.  Guards read only the signature
   bits; a sprinkling of non-cacheable installs exercises chain
   poisoning, which must also preserve equivalence (by never caching). *)
let equivalence_under_churn =
  QCheck.Test.make ~count:120
    ~name:"cached dispatch == uncached dispatch under churn"
    QCheck.(
      list_of_size
        Gen.(0 -- 40)
        (oneof
           [
             map
               (fun (on_root, cls, cacheable) ->
                 `Install (on_root, cls, cacheable))
               (triple bool (int_range (-1) 3) bool);
             map (fun i -> `Uninstall i) (int_bound 20);
             map (fun on_root -> `Touch on_root) bool;
             map (fun v -> `Raise v) (int_bound 15);
           ]))
    (fun ops ->
      let cached = mk_side ~flowcache:true in
      let uncached = mk_side ~flowcache:false in
      let apply s uninstallers tag = function
        | `Install (on_root, cls, cacheable) ->
            let target = if on_root then s.root else s.mid in
            let guard = if cls < 0 then None else Some (fun v -> v land 3 = cls) in
            uninstallers :=
              !uninstallers @ [ install_logger ~cacheable ?guard s target tag ]
        | `Uninstall i -> (
            match !uninstallers with
            | [] -> ()
            | l ->
                let i = i mod List.length l in
                (List.nth l i) ();
                uninstallers := List.filteri (fun j _ -> j <> i) l)
        | `Touch on_root -> D.touch (if on_root then s.root else s.mid)
        | `Raise v -> send s v
      in
      let uc = ref [] and uu = ref [] in
      List.iteri (fun tag op -> apply cached uc tag op) ops;
      List.iteri (fun tag op -> apply uncached uu tag op) ops;
      (* the run ledger too: replay charges each handler once, as graph
         delivery does *)
      let ledger s =
        List.concat_map
          (fun ei ->
            List.map
              (fun hi ->
                ( (ei.D.ei_name, hi.D.hi_label),
                  (hi.D.hi_runs, hi.D.hi_cpu_ns) ))
              ei.D.ei_handlers)
          (D.dump s.d)
      in
      delivered cached = delivered uncached
      && ledger cached = ledger uncached
      && D.invocations cached.d = D.invocations uncached.d)

(* ---- full stack ------------------------------------------------------ *)

let stack_counters () =
  let p =
    Experiments.Common.plexus_pair ~flowcache:true (Netsim.Costs.ethernet ())
  in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let got = ref [] in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"srv" ~port:7 with
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun ctx ->
            got := View.to_string (Plexus.Pctx.view ctx) :: !got)
      in
      ()
  | Error _ -> Alcotest.fail "bind failed");
  let client =
    match Plexus.Udp_mgr.bind udp_a ~owner:"cli" ~port:5000 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let disp_b = Plexus.Graph.dispatcher (Plexus.Stack.graph p.Experiments.Common.b) in
  let ping i =
    Plexus.Udp_mgr.send udp_a client
      ~dst:(Experiments.Common.ip_b, 7)
      (Printf.sprintf "ping-%d" i);
    Sim.Engine.run p.Experiments.Common.engine
  in
  (* first data packet records the udp flow (the ARP exchange has its
     own flow entries); later packets must replay it *)
  ping 0;
  let h0 = D.path_cache_hits disp_b and m0 = D.path_cache_misses disp_b in
  ping 1;
  ping 2;
  Alcotest.(check int) "steady-state packets hit" (h0 + 2)
    (D.path_cache_hits disp_b);
  Alcotest.(check int) "no steady-state misses" m0
    (D.path_cache_misses disp_b);
  let ether_ev =
    Plexus.Graph.recv_event
      (Plexus.Ether_mgr.node (Plexus.Stack.ether p.Experiments.Common.b))
  in
  Alcotest.(check bool) "flow entry live at the ether root" true
    (D.cache_entries ether_ev >= 1);
  Alcotest.(check (list string))
    "payloads delivered in order"
    [ "ping-0"; "ping-1"; "ping-2" ]
    (List.rev !got)

let stack_exclude_ports_invalidates () =
  let p =
    Experiments.Common.plexus_pair ~flowcache:true (Netsim.Costs.ethernet ())
  in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let got = ref 0 in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"srv" ~port:7 with
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun _ -> incr got)
      in
      ()
  | Error _ -> Alcotest.fail "bind failed");
  let client =
    match Plexus.Udp_mgr.bind udp_a ~owner:"cli" ~port:5000 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let ping () =
    Plexus.Udp_mgr.send udp_a client ~dst:(Experiments.Common.ip_b, 7) "x";
    Sim.Engine.run p.Experiments.Common.engine
  in
  ping ();
  ping ();
  Alcotest.(check int) "delivered while open" 2 !got;
  (* the exclude list is guard state beyond the flow signature: mutating
     it must invalidate the cached path before the next packet *)
  Plexus.Udp_mgr.exclude_ports udp_b [ 7 ];
  ping ();
  Alcotest.(check int) "excluded port no longer delivered" 2 !got

(* ---- batching -------------------------------------------------------- *)

let pool_reserve_n () =
  let pool = Pool.create ~name:"p" ~capacity:4 () in
  Alcotest.(check int) "full grant" 3 (Pool.reserve_n pool 3);
  Alcotest.(check int) "live tracks grant" 3 (Pool.live pool);
  Alcotest.(check int) "partial grant at capacity" 1 (Pool.reserve_n pool 3);
  Alcotest.(check int) "shortfall counted as failures" 2 (Pool.failures pool);
  Pool.release_n pool 4;
  Alcotest.(check int) "released" 0 (Pool.live pool);
  Alcotest.(check int) "zero grant on empty request" 0 (Pool.reserve_n pool 0);
  Alcotest.check_raises "underflow rejected"
    (Invalid_argument "p: pool slots released twice (double free)") (fun () ->
      Pool.release_n pool 1)

let mk_udp_frame ~dst_mac ~dst_port =
  let m = Mbuf.alloc 64 in
  Proto.Udp.encapsulate ~checksum:true m ~src:Experiments.Common.ip_a
    ~dst:Experiments.Common.ip_b ~src_port:5000 ~dst_port;
  Proto.Ipv4.encapsulate m
    (Proto.Ipv4.make ~id:1 ~proto:Proto.Ipv4.proto_udp
       ~src:Experiments.Common.ip_a ~dst:Experiments.Common.ip_b
       ~payload_len:(Mbuf.length m) ());
  Proto.Ether.encapsulate m
    { Proto.Ether.dst = dst_mac; src = dst_mac; etype = Proto.Ether.etype_ip };
  m

let deliver_batch_through_stack () =
  let p =
    Experiments.Common.plexus_pair ~flowcache:true (Netsim.Costs.ethernet ())
  in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let got = ref 0 in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"srv" ~port:7 with
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun _ -> incr got)
      in
      ()
  | Error _ -> Alcotest.fail "bind failed");
  let dev = Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.b) in
  let mac = Netsim.Dev.mac dev in
  let frames =
    List.init 8 (fun _ -> Mbuf.ro (mk_udp_frame ~dst_mac:mac ~dst_port:7))
  in
  let ether_ev =
    Plexus.Graph.recv_event (Plexus.Ether_mgr.node (Plexus.Stack.ether p.b))
  in
  let raises () =
    let d = Plexus.Graph.dispatcher (Plexus.Stack.graph p.b) in
    match
      Observe.Registry.find
        (Option.get (Spin.Dispatcher.registry d))
        ("spin." ^ Spin.Dispatcher.name ether_ev ^ ".raises")
    with
    | Some (Observe.Registry.Counter n) -> !n
    | _ -> Alcotest.fail "no raise counter"
  in
  let r0 = raises () in
  Netsim.Dev.deliver_batch dev frames;
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "all frames delivered" 8 !got;
  Alcotest.(check int) "batch counted on the device" 8
    (Netsim.Dev.counters dev).Netsim.Dev.rx_packets;
  Alcotest.(check int) "one ether raise per frame" (r0 + 8) (raises ());
  (* an empty batch is a no-op *)
  Netsim.Dev.deliver_batch dev [];
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "empty batch delivers nothing" 8 !got

let deliver_batch_ring_overflow () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let mk name mac =
    Netsim.Dev.create e ~cpu ~name ~mac:(Proto.Ether.Mac.of_int mac)
      (Netsim.Costs.ethernet ())
  in
  let a = mk "a" 0x1 and b = mk "b" 0x2 in
  Netsim.Dev.connect a b;
  let pool = Pool.create ~name:"ring" ~capacity:4 () in
  Netsim.Dev.set_rx_pool b pool;
  (* deliver_batch releases the reserved ring slots itself when the
     coalesced interrupt fires — the upcall only consumes the frames *)
  let got = ref 0 in
  Netsim.Dev.set_rx b (fun ~polled:_ _ -> incr got);
  let frames = List.init 6 (fun i -> Mbuf.ro (Mbuf.of_string (String.make 60 (Char.chr (65 + i))))) in
  Netsim.Dev.deliver_batch b frames;
  Sim.Engine.run e;
  Alcotest.(check int) "ring grants only its capacity" 4 !got;
  Alcotest.(check int) "overflow counted as rx drops" 2
    (Netsim.Dev.counters b).Netsim.Dev.rx_drops

(* The synchronous replay charges its modelled chain cost as a CPU
   reservation: no engine event of its own, but queued and subsequent
   work must wait it out, so latency and utilization accounting are
   unchanged. *)
let cpu_charge_reserves () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  Sim.Cpu.charge cpu ~cost:(us 10);
  Alcotest.(check int) "charge accounted as busy time" 10_000
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu));
  let done_at = ref Sim.Stime.zero in
  Sim.Cpu.run cpu ~cost:(us 5) (fun () -> done_at := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "queued work waits out the reservation" 15_000
    (Sim.Stime.to_ns !done_at);
  Alcotest.(check int) "busy time includes both" 15_000
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu))

(* ---- flow signature -------------------------------------------------- *)

let signature_extraction () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let dev = Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.b) in
  let mac = Netsim.Dev.mac dev in
  let sig_of m = Plexus.Filter.flow_signature (Plexus.Pctx.make dev (Mbuf.ro m)) in
  let s1 = sig_of (mk_udp_frame ~dst_mac:mac ~dst_port:7) in
  let s2 = sig_of (mk_udp_frame ~dst_mac:mac ~dst_port:7) in
  let s3 = sig_of (mk_udp_frame ~dst_mac:mac ~dst_port:9) in
  Alcotest.(check bool) "signature present on a udp frame" true (s1 <> None);
  Alcotest.(check bool) "same 5-tuple, same signature" true (s1 = s2);
  Alcotest.(check bool) "different port, different signature" true (s1 <> s3);
  (* fragments cannot be summarized: ports belong to the first fragment *)
  let frag = mk_udp_frame ~dst_mac:mac ~dst_port:7 in
  View.set_u16 (Mbuf.view frag) 20 0x2000 (* more-fragments *);
  Alcotest.(check bool) "fragment refused" true (sig_of frag = None);
  (* only a fresh root context is a raw frame the signature describes *)
  let parsed =
    Plexus.Pctx.advance (Plexus.Pctx.make dev (Mbuf.ro (mk_udp_frame ~dst_mac:mac ~dst_port:7))) 14
  in
  Alcotest.(check bool) "non-fresh context refused" true
    (Plexus.Filter.flow_signature parsed = None);
  (* demux and signature agree through the shared extractor *)
  let d =
    Plexus.Filter.frame_demux
      (View.ro (Mbuf.view (mk_udp_frame ~dst_mac:mac ~dst_port:7)))
  in
  Alcotest.(check int) "demux reads the dst port" 7 d.Plexus.Filter.dst_port;
  Alcotest.(check bool) "packed form matches the context signature" true
    (Some (Plexus.Filter.signature_of_demux d) = s1)

let suite =
  [
    ( "flowcache.dispatcher",
      [
        tc "hit replays the same chain" hit_replays_same_chain;
        tc "disabled by default" disabled_by_default;
        tc "uninstall invalidates before the next packet"
          uninstall_invalidates_before_next_packet;
        tc "touch invalidates" touch_invalidates;
        tc "churn during recording discards the entry"
          churn_during_recording_discards_entry;
        tc "churn during replay diverges safely"
          churn_during_replay_diverges_safely;
        tc "replayed fault uninstalls the handler" replayed_fault_uninstalls;
        tc "replayed run is quarantined" replayed_run_quarantined;
        tc "warm hit emits one span" warm_hit_emits_one_span;
        prop equivalence_under_churn;
      ] );
    ( "flowcache.stack",
      [
        tc "path_cache counters on the udp fast path" stack_counters;
        tc "exclude_ports invalidates the cached path"
          stack_exclude_ports_invalidates;
      ] );
    ( "flowcache.batching",
      [
        tc "pool reserve_n/release_n" pool_reserve_n;
        tc "deliver_batch through the stack" deliver_batch_through_stack;
        tc "deliver_batch ring overflow" deliver_batch_ring_overflow;
        tc "cpu charge reserves" cpu_charge_reserves;
      ] );
    ( "flowcache.signature",
      [ tc "flow signature extraction" signature_extraction ] );
  ]
