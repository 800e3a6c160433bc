(* Golden snapshot of the simulated evaluation: Figure 5, the section 4.2
   throughput table, Figure 6 at five stream counts (both sides of the
   T3 saturation point) and its client-side finding, Figure 7, the
   section 3.3 microbenchmarks, the ablations, the motivation
   experiments, the size sweep, HTTP GET latency, the server farm and
   its scale probe, unrounded, one seed of each chaos scenario, the
   overload and livelock experiments, the single-domain [Par.Node]
   oracle, then per-event dispatcher counters from two fixed Figure-5
   echo runs.
   The simulator is deterministic, so [dune runtest] can diff this
   against [golden.expected]; even a 1 ns change to one [Netsim.Costs]
   constant shows.  Figure 6's full stream sweep takes seconds, so only
   a subset of stream counts is pinned.  Regenerate the expected file
   only on purpose
   ([dune exec test/golden/golden.exe > test/golden/golden.expected])
   and say in the change log what moved and why. *)

(* One line per table row: a name, then [key=value] fields. *)
let row name fields =
  print_string name;
  List.iter (fun (k, v) -> Printf.printf " %s=%s" k v) fields;
  print_newline ()

let fl v = Printf.sprintf "%.17g" v
let int = string_of_int

let fig5 () =
  List.iter
    (fun (r : Experiments.Fig5.row) ->
      row ("fig5 " ^ r.device)
        [
          ("plexus_interrupt", fl r.plexus_interrupt);
          ("plexus_thread", fl r.plexus_thread);
          ("digital_unix", fl r.digital_unix);
          ("user_library", fl r.user_library);
          ("raw_driver", fl r.raw_driver);
        ])
    (Experiments.Fig5.run ~iters:100 ());
  row "fig5 fast"
    (List.map
       (fun (label, v, _paper) -> (label, fl v))
       (Experiments.Fig5.fast_driver_variants ~iters:100 ()))

let tput () =
  List.iter
    (fun (r : Experiments.Tput.row) ->
      row ("tput " ^ r.device)
        [
          ("plexus_mbps", fl r.plexus_mbps);
          ("du_mbps", fl r.du_mbps);
          ("gap_p50_us", fl r.gap_p50_us);
          ("gap_p99_us", fl r.gap_p99_us);
        ])
    (Experiments.Tput.run ~bytes:500_000 ())

let fig6 () =
  List.iter
    (fun (s : Experiments.Fig6.sample) ->
      row
        ("fig6 " ^ int s.streams)
        [
          ("spin_util", fl s.spin_util);
          ("du_util", fl s.du_util);
          ("net_mbps", fl s.net_mbps);
        ])
    (Experiments.Fig6.run ~stream_counts:[ 1; 4; 8; 15; 30 ] ());
  let c = Experiments.Fig6.client () in
  row
    ("fig6 client " ^ int c.c_streams)
    [
      ("plexus_util", fl c.plexus_util);
      ("du_util", fl c.du_util);
      ("plexus_fb_share", fl c.plexus_fb_share);
    ]

let fig7 () =
  List.iter
    (fun (r : Experiments.Fig7.row) ->
      row
        ("fig7 " ^ int r.payload)
        [ ("plexus_us", fl r.plexus_us); ("du_us", fl r.du_us) ])
    (Experiments.Fig7.run ~warmup:5 ~iters:10 ())

let micro () =
  let r = Experiments.Micro.run ~iters:20 () in
  row "micro am"
    [
      ("interrupt_rtt", fl r.interrupt_rtt);
      ("thread_rtt", fl r.thread_rtt);
      ("udp_rtt", fl r.udp_rtt);
    ];
  let t = Experiments.Micro.budget_termination () in
  row "micro budget"
    [
      ("messages", int t.messages);
      ("terminations", int t.terminations);
      ("committed_actions", int t.committed_actions);
    ]

let ablate () =
  List.iter
    (fun (p : Experiments.Ablate.guard_point) ->
      row
        ("ablate guards " ^ int p.extra_endpoints)
        [ ("linear_us", fl p.rtt_us); ("indexed_us", fl p.indexed_rtt_us) ])
    (Experiments.Ablate.guard_scaling ~iters:30 ());
  let s = Experiments.Ablate.spoof_policy ~iters:20 () in
  row "ablate spoof"
    [
      ("overwrite_rtt", fl s.overwrite_rtt);
      ("verify_rtt", fl s.verify_rtt);
      ("rejected", int s.spoofs_rejected);
    ];
  let c = Experiments.Ablate.cksum_variant ~iters:20 () in
  row "ablate cksum"
    [ ("with", fl c.with_cksum); ("without", fl c.without_cksum) ];
  row "ablate dispatch"
    (List.map
       (fun (d : Experiments.Ablate.dispatch_point) ->
         ("x" ^ int d.factor, fl d.rtt_us))
       (Experiments.Ablate.dispatch_sensitivity ~iters:20 ()));
  let f = Experiments.Ablate.filter_vs_guard ~iters:20 () in
  row "ablate filter"
    [
      ("native_rtt", fl f.native_rtt);
      ("interpreted_rtt", fl f.interpreted_rtt);
      ("compiled_rtt", fl f.compiled_rtt);
      ("nodes", int f.nodes);
    ];
  let uni, multi = Experiments.Ablate.video_multicast_util () in
  row "ablate video" [ ("unicast_util", fl uni); ("multicast_util", fl multi) ]

let motivate () =
  row "motivate wan"
    (List.map
       (fun (p : Experiments.Motivate.wan_point) -> (int p.window, fl p.mbps))
       (Experiments.Motivate.wan_windows ~windows:[ 8_192; 65_535 ] ()));
  let t = Experiments.Motivate.transactions ~n:5 () in
  row "motivate txn" [ ("stock_us", fl t.stock_us); ("tuned_us", fl t.tuned_us) ];
  let b = Experiments.Motivate.blast_vs_tcp ~bytes:50_000 () in
  row "motivate blast"
    [
      ("tcp_ms", fl b.tcp_ms);
      ("blast_ms", fl b.blast_ms);
      ("retx", int b.blast_retx);
    ]

let sweep () =
  List.iter
    (fun (r : Experiments.Sweep.row) ->
      List.iter
        (fun (p : Experiments.Sweep.point) ->
          row
            (Printf.sprintf "sweep %s %d" r.device p.size)
            [ ("plexus_us", fl p.plexus_us); ("du_us", fl p.du_us) ])
        r.points)
    (Experiments.Sweep.run ~iters:20 ())

let http () =
  let r = Experiments.Http_bench.run ~warmup:2 ~iters:5 () in
  row "http"
    [
      ("plexus_us", fl r.plexus_us);
      ("du_us", fl r.du_us);
      ("body_len", int r.body_len);
    ]

let farm () =
  let r = Experiments.Farm.run ~clients:2 ~warmup:5 ~requests:40 () in
  row "farm run"
    [
      ("completed", int r.completed);
      ("mean_us", fl r.mean_us);
      ("p50_us", fl r.p50_us);
      ("p99_us", fl r.p99_us);
    ];
  let probe =
    Experiments.Farm.scale_setup ~clients:2 ~seed:1 ~live_flows:200 ~probes:32
      ()
  in
  for round = 1 to 2 do
    let p = probe () in
    row
      ("farm probe " ^ int round)
      [ ("p50_us", fl p.probe_p50_us); ("p99_us", fl p.probe_p99_us) ]
  done

let chaos () =
  let seed = 1 in
  Format.printf "chaos %a@." Experiments.Chaos.pp_udp_outcome
    (Experiments.Chaos.udp_blast ~seed ());
  Format.printf "chaos %a@." Experiments.Chaos.pp_frag_outcome
    (Experiments.Chaos.udp_frag ~seed ());
  Format.printf "chaos %a@." Experiments.Chaos.pp_tcp_outcome
    (Experiments.Chaos.tcp_transfer ~seed ())

(* The device receive paths the figures above do not reach: the
   overload victim's polled admission drain, the livelock host's
   thread-priority work, and the coalesced bursts of the RSS oracle. *)
let overload () =
  let p = Experiments.Overload.run () in
  row "overload"
    [
      ("offered_pps", int p.offered_pps);
      ("unmitigated", fl p.unmitigated_goodput);
      ("mitigated", fl p.mitigated_goodput);
    ]

let livelock () =
  List.iter
    (fun (p : Experiments.Livelock.point) ->
      row
        ("livelock " ^ int p.offered_pps)
        [
          ("interrupt_progress", fl p.interrupt_progress);
          ("thread_progress", fl p.thread_progress);
        ])
    (Experiments.Livelock.run ())

let parallel () =
  let plan = Par.Rss.make ~seed:42 ~flows:256 ~pkts_per_flow:40 () in
  let s = Par.Node.run ~domains:1 plan in
  row "par oracle"
    (List.map (fun (k, v) -> (k, int v)) (Par.Node.equiv_counters s)
    @ [
        ("busy_max_us", fl s.busy_max_us);
        ("datagrams_per_s", fl s.datagrams_per_s);
      ])

(* A Figure-5 echo (Ethernet, interrupt delivery), then every dispatcher
   counter per host and the nonzero raise counters of each event.  The
   plain run is Figure 5's own configuration; the mixed run adds an
   unkeyed bystander endpoint on the server and binds the client
   unkeyed, so linear raises and leaf residual guards show up too. *)
let dispatch_counters ~tag ~mixed =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let udp_a = Plexus.Stack.udp p.a and udp_b = Plexus.Stack.udp p.b in
  let bind udp owner port =
    match Plexus.Udp_mgr.bind udp ~owner ~port with
    | Ok ep -> ep
    | Error _ -> assert false
  in
  let server = bind udp_b "echo-server" 7 in
  if mixed then begin
    let bystander = bind udp_b "bystander" 9 in
    let (_ : unit -> unit) =
      Plexus.Udp_mgr.install_recv_linear udp_b bystander (fun _ -> ())
    in
    ()
  end;
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
        let data = View.to_string (Plexus.Pctx.view ctx) in
        let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
        Plexus.Udp_mgr.send udp_b server ~dst:(src, ctx.Plexus.Pctx.src_port)
          data)
  in
  let client = bind udp_a "echo-client" 5001 in
  let remaining = ref 30 in
  let send_next () =
    if !remaining > 0 then begin
      decr remaining;
      Plexus.Udp_mgr.send udp_a client ~dst:(Experiments.Common.ip_b, 7)
        "ping-pkt"
    end
  in
  let install =
    if mixed then Plexus.Udp_mgr.install_recv_linear
    else Plexus.Udp_mgr.install_recv
  in
  let (_ : unit -> unit) = install udp_a client (fun _ -> send_next ()) in
  send_next ();
  Sim.Engine.run p.engine ~max_events:10_000_000;
  row ("dispatch " ^ tag)
    [ ("end_ms", fl (Sim.Stime.to_ms (Sim.Engine.now p.engine))) ];
  List.iter
    (fun (host, stack) ->
      let d = Plexus.Graph.dispatcher (Plexus.Stack.graph stack) in
      let name = Printf.sprintf "dispatch %s %s" tag host in
      row name
        [
          ("raises", int (Spin.Dispatcher.raises d));
          ("guard_evals", int (Spin.Dispatcher.guard_evals d));
          ("index_lookups", int (Spin.Dispatcher.index_lookups d));
          ("invocations", int (Spin.Dispatcher.invocations d));
        ];
      let reg = Option.get (Spin.Dispatcher.registry d) in
      List.iter
        (fun (ei : Spin.Dispatcher.event_info) ->
          let counts =
            List.filter_map
              (fun metric ->
                match
                  Observe.Registry.find reg
                    ("spin." ^ ei.ei_name ^ "." ^ metric)
                with
                | Some (Observe.Registry.Counter n) when !n > 0 ->
                    Some (metric, int !n)
                | _ -> None)
              [
                "raises"; "indexed_raises"; "linear_raises"; "tree.raises";
                "tree.residual_evals";
              ]
          in
          if counts <> [] then row (name ^ " " ^ ei.ei_name) counts)
        (Spin.Dispatcher.dump d))
    [ ("a", p.a); ("b", p.b) ]

let () =
  fig5 ();
  tput ();
  fig6 ();
  fig7 ();
  micro ();
  ablate ();
  motivate ();
  sweep ();
  http ();
  farm ();
  chaos ();
  overload ();
  livelock ();
  parallel ();
  dispatch_counters ~tag:"fig5" ~mixed:false;
  dispatch_counters ~tag:"mixed" ~mixed:true
