(* Tests for the discrete-event simulation substrate. *)

let us = Sim.Stime.us
let check_time = Alcotest.(check int)

(* ---- Stime ---------------------------------------------------------- *)

let stime_units () =
  check_time "us" 1_000 (Sim.Stime.to_ns (Sim.Stime.us 1));
  check_time "ms" 1_000_000 (Sim.Stime.to_ns (Sim.Stime.ms 1));
  check_time "s" 1_000_000_000 (Sim.Stime.to_ns (Sim.Stime.s 1));
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Sim.Stime.to_us (Sim.Stime.ns 1500))

let stime_arith () =
  let a = us 10 and b = us 3 in
  check_time "add" 13_000 (Sim.Stime.to_ns (Sim.Stime.add a b));
  check_time "sub" 7_000 (Sim.Stime.to_ns (Sim.Stime.sub a b));
  check_time "mul" 30_000 (Sim.Stime.to_ns (Sim.Stime.mul a 3));
  check_time "scale" 15_000 (Sim.Stime.to_ns (Sim.Stime.scale a 1.5));
  check_time "max" 10_000 (Sim.Stime.to_ns (Sim.Stime.max a b));
  check_time "min" 3_000 (Sim.Stime.to_ns (Sim.Stime.min a b));
  Alcotest.(check bool) "pos" true (Sim.Stime.is_positive a);
  Alcotest.(check bool) "zero not pos" false (Sim.Stime.is_positive Sim.Stime.zero)

let stime_of_float () =
  check_time "of_us_f rounds" 1_500 (Sim.Stime.to_ns (Sim.Stime.of_us_f 1.5));
  check_time "of_s_f" 2_000_000_000 (Sim.Stime.to_ns (Sim.Stime.of_s_f 2.0))

let stime_pp () =
  Alcotest.(check string) "ns" "512ns" (Sim.Stime.to_string (Sim.Stime.ns 512));
  Alcotest.(check string) "us" "1.50us" (Sim.Stime.to_string (Sim.Stime.ns 1500));
  Alcotest.(check string) "ms" "2.000ms" (Sim.Stime.to_string (Sim.Stime.ms 2))

(* ---- Pheap ---------------------------------------------------------- *)

let pheap_order () =
  let h = Pheap.create () in
  List.iter (fun k -> Pheap.add h ~key:k k) [ 5; 1; 9; 3; 7 ];
  let popped = List.init 5 (fun _ ->
      match Pheap.pop_min h with Some (k, _) -> k | None -> -1)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] popped

let pheap_stability () =
  let h = Pheap.create () in
  List.iteri (fun i v -> Pheap.add h ~key:7 (i, v)) [ "a"; "b"; "c" ];
  let popped = List.init 3 (fun _ ->
      match Pheap.pop_min h with Some (_, (_, v)) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "fifo among equal keys" [ "a"; "b"; "c" ] popped

let pheap_peek_and_sizes () =
  let h = Pheap.create () in
  Alcotest.(check bool) "empty" true (Pheap.is_empty h);
  Alcotest.(check (option (pair int int))) "peek empty" None (Pheap.peek_min h);
  Pheap.add h ~key:4 42;
  Pheap.add h ~key:2 24;
  Alcotest.(check int) "size" 2 (Pheap.size h);
  Alcotest.(check (option (pair int int))) "peek" (Some (2, 24)) (Pheap.peek_min h);
  Alcotest.(check int) "peek preserves" 2 (Pheap.size h);
  Pheap.clear h;
  Alcotest.(check bool) "cleared" true (Pheap.is_empty h)

let pheap_qcheck =
  QCheck.Test.make ~name:"pheap pops in sorted order"
    QCheck.(list (int_bound 10_000))
    (fun keys ->
      let h = Pheap.create () in
      List.iter (fun k -> Pheap.add h ~key:k k) keys;
      let rec drain acc =
        match Pheap.pop_min h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

(* ---- Rng ------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let rng_split_independent () =
  let a = Sim.Rng.create 7 in
  let b = Sim.Rng.split a in
  let xs = List.init 10 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let r = Sim.Rng.create seed in
      List.for_all (fun _ -> let x = Sim.Rng.int r n in x >= 0 && x < n)
        (List.init 50 Fun.id))

let rng_float_bounds =
  QCheck.Test.make ~name:"rng float stays in bounds" QCheck.small_int
    (fun seed ->
      let r = Sim.Rng.create seed in
      List.for_all (fun _ -> let x = Sim.Rng.float r 3.5 in x >= 0. && x < 3.5)
        (List.init 50 Fun.id))

let rng_exponential_positive () =
  let r = Sim.Rng.create 3 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Sim.Rng.exponential r ~mean:5. > 0.)
  done

(* ---- Engine --------------------------------------------------------- *)

let engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~at:(us 30) (fun () -> log := 3 :: !log));
  ignore (Sim.Engine.schedule e ~at:(us 10) (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~at:(us 20) (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_time "clock at last event" 30_000 (Sim.Stime.to_ns (Sim.Engine.now e))

let engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~at:(us 10) (fun () -> fired := true) in
  Sim.Engine.cancel h;
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired;
  Alcotest.(check int) "no events counted" 0 (Sim.Engine.events_run e)

let engine_schedule_in () =
  let e = Sim.Engine.create () in
  let at = ref Sim.Stime.zero in
  ignore (Sim.Engine.schedule e ~at:(us 5) (fun () ->
      ignore (Sim.Engine.schedule_in e ~delay:(us 7) (fun () -> at := Sim.Engine.now e))));
  Sim.Engine.run e;
  check_time "relative delay" 12_000 (Sim.Stime.to_ns !at)

let engine_no_past () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~at:(us 10) (fun () ->
      Alcotest.check_raises "cannot schedule in the past"
        (Invalid_argument "Engine.schedule: cannot schedule in the past")
        (fun () -> ignore (Sim.Engine.schedule e ~at:(us 1) ignore))));
  Sim.Engine.run e

let engine_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule e ~at:(us (i * 10)) (fun () -> incr count))
  done;
  Sim.Engine.run e ~until:(us 45);
  Alcotest.(check int) "only events before horizon" 4 !count;
  check_time "clock left at horizon" 45_000 (Sim.Stime.to_ns (Sim.Engine.now e));
  Sim.Engine.run e;
  Alcotest.(check int) "rest run later" 10 !count

let engine_max_events () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec loop () =
    incr count;
    ignore (Sim.Engine.schedule_in e ~delay:(us 1) loop)
  in
  ignore (Sim.Engine.schedule e ~at:(us 1) loop);
  Sim.Engine.run e ~max_events:100;
  Alcotest.(check int) "bounded" 100 !count

let engine_event_cascades () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  ignore
    (Sim.Engine.schedule e ~at:(us 10) (fun () ->
         order := "a" :: !order;
         (* same-time event scheduled from within an event still runs *)
         ignore (Sim.Engine.schedule e ~at:(us 10) (fun () -> order := "b" :: !order))));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "cascade" [ "a"; "b" ] (List.rev !order)

(* ---- Cpu ------------------------------------------------------------ *)

let cpu_serializes () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let finish = ref [] in
  Sim.Cpu.run cpu ~cost:(us 10) (fun () ->
      finish := ("a", Sim.Engine.now e) :: !finish);
  Sim.Cpu.run cpu ~cost:(us 5) (fun () ->
      finish := ("b", Sim.Engine.now e) :: !finish);
  Sim.Engine.run e;
  match List.rev !finish with
  | [ ("a", ta); ("b", tb) ] ->
      check_time "a done at 10" 10_000 (Sim.Stime.to_ns ta);
      check_time "b queued behind a" 15_000 (Sim.Stime.to_ns tb)
  | _ -> Alcotest.fail "wrong completion order"

let cpu_priority () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let order = ref [] in
  (* three thread items, then an interrupt arrives while the first runs *)
  Sim.Cpu.run cpu ~prio:Sim.Cpu.Thread ~cost:(us 10) (fun () ->
      order := "t1" :: !order;
      Sim.Cpu.run cpu ~prio:Sim.Cpu.Interrupt ~cost:(us 1) (fun () ->
          order := "intr" :: !order));
  Sim.Cpu.run cpu ~prio:Sim.Cpu.Thread ~cost:(us 10) (fun () ->
      order := "t2" :: !order);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "interrupt preempts queued thread work"
    [ "t1"; "intr"; "t2" ] (List.rev !order)

let cpu_utilization () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  Sim.Cpu.run cpu ~cost:(us 30) ignore;
  ignore (Sim.Engine.schedule e ~at:(us 100) ignore);
  Sim.Engine.run e;
  Alcotest.(check (float 0.01)) "30% busy over 100us" 0.30 (Sim.Cpu.utilization cpu);
  Sim.Cpu.reset_window cpu;
  Sim.Cpu.run cpu ~cost:(us 50) ignore;
  ignore (Sim.Engine.schedule e ~at:(us 200) ignore);
  Sim.Engine.run e;
  Alcotest.(check (float 0.01)) "window reset" 0.50 (Sim.Cpu.utilization cpu);
  check_time "busy accumulates" 80_000 (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu));
  Alcotest.(check int) "served" 2 (Sim.Cpu.served cpu)

let cpu_queue_depth () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  Sim.Cpu.run cpu ~cost:(us 10) ignore;
  Sim.Cpu.run cpu ~cost:(us 10) ignore;
  Sim.Cpu.run cpu ~cost:(us 10) ignore;
  Alcotest.(check int) "two waiting behind one in service" 2
    (Sim.Cpu.queue_depth cpu);
  Sim.Engine.run e;
  Alcotest.(check int) "drained" 0 (Sim.Cpu.queue_depth cpu)

let cpu_fifo_across_growth () =
  (* more items than the initial queue capacity; an interrupt arriving
     mid-item waits for it (service is non-preemptive), then jumps the
     queued thread work *)
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let order = ref [] in
  for i = 1 to 20 do
    Sim.Cpu.run cpu ~cost:(us 10) (fun () -> order := i :: !order)
  done;
  ignore
    (Sim.Engine.schedule e ~at:(us 5) (fun () ->
         Sim.Cpu.run cpu ~prio:Sim.Cpu.Interrupt ~cost:(us 1) (fun () ->
             order := 0 :: !order)));
  Alcotest.(check int) "19 queued" 19 (Sim.Cpu.queue_depth cpu);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "item in service, interrupt, then FIFO"
    (1 :: 0 :: List.init 19 (fun i -> i + 2))
    (List.rev !order);
  check_time "all work done" 201_000 (Sim.Stime.to_ns (Sim.Engine.now e))

(* ---- allocation budgets ---------------------------------------------- *)

(* Minor-heap words per call of [f], after one warm-up call. *)
let words_per ~n f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let static_thunk () = ()

let check_budget what ~bound words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words <= %d" what words bound)
    true
    (words <= float_of_int bound)

let alloc_engine_event () =
  (* one node; the thunk is the caller's and static here *)
  let e = Sim.Engine.create () in
  check_budget "schedule + step" ~bound:12
    (words_per ~n:10_000 (fun () ->
         ignore (Sim.Engine.schedule_in e ~delay:(us 1) static_thunk);
         ignore (Sim.Engine.step e)))

let alloc_idle_cpu_run () =
  (* the in-service item lives in the CPU's fields and its completion
     thunk is shared: only the engine node is allocated *)
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  check_budget "idle Cpu.run + Engine.run" ~bound:14
    (words_per ~n:10_000 (fun () ->
         Sim.Cpu.run cpu ~cost:(us 1) static_thunk;
         Sim.Engine.run e))

let alloc_jitter_untraced () =
  (* a jittered frame costs two more RNG draws (22 words) than a plain
     one, not the formatting of a trace detail nobody reads (~300) *)
  let frame_words jitter =
    let engine = Sim.Engine.create () in
    let a, b =
      Netsim.Network.pair engine (Netsim.Costs.loopback ())
        ~a:("a", Proto.Ipaddr.v 10 0 0 1)
        ~b:("b", Proto.Ipaddr.v 10 0 0 2)
    in
    let plan = Netsim.Network.install_faults ~seed:1 a in
    Netsim.Faults.set_jitter plan jitter;
    Netsim.Dev.set_rx b.Netsim.Network.dev (fun ~polled:_ pkt -> Mbuf.free pkt);
    let w =
      words_per ~n:2_000 (fun () ->
          Netsim.Dev.transmit a.Netsim.Network.dev (Mbuf.alloc 64);
          Sim.Engine.run engine)
    in
    (w, Netsim.Faults.delays plan)
  in
  let plain, _ = frame_words 0. and jittered, delays = frame_words 1. in
  Alcotest.(check bool) "every frame delayed" true (delays > 2_000);
  check_budget "jitter over a plain frame" ~bound:64 (jittered -. plain)

(* ---- Sample statistics (Experiments.Common) ------------------------- *)

let stats_series () =
  let mean = Experiments.Common.mean and pct = Experiments.Common.percentile in
  let xs = [ 4.; 1.; 5.; 3.; 2. ] in
  Alcotest.(check (float 1e-9)) "mean" 3. (mean xs);
  Alcotest.(check (float 1e-9)) "median" 3. (pct xs 50.);
  Alcotest.(check (float 1e-9)) "p0" 1. (pct xs 0.);
  Alcotest.(check (float 1e-9)) "p100" 5. (pct xs 100.);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2. (pct xs 25.);
  Alcotest.(check bool) "empty mean" true (Float.is_nan (mean []));
  Alcotest.(check bool) "empty percentile" true (Float.is_nan (pct [] 50.));
  (* summed head first: the order decides the last bit *)
  Alcotest.(check (float 0.)) "summed in list order"
    (((0.1 +. 0.2) +. 0.3) /. 3.)
    (mean [ 0.1; 0.2; 0.3 ])

(* The closed-loop driver records each measured round trip in µs. *)
let stats_series_time () =
  let engine = Sim.Engine.create () in
  let reply = ref ignore in
  let start, samples =
    Experiments.Common.closed_loop ~engine ~warmup:1 ~iters:2
      ~send:(fun () ->
        ignore (Sim.Engine.schedule_in engine ~delay:(us 12) (fun () -> !reply ())))
      (fun r -> reply := r)
  in
  start ();
  Sim.Engine.run engine;
  Alcotest.(check (list (float 0.))) "stored as us, warm-up dropped"
    [ 12.; 12. ] (samples ());
  Alcotest.(check int) "three rounds" 36_000
    (Sim.Stime.to_ns (Sim.Engine.now engine))

let stats_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min..max"
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.)) (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let v = Experiments.Common.percentile xs p in
      v >= List.fold_left Float.min infinity xs -. 1e-9
      && v <= List.fold_left Float.max neg_infinity xs +. 1e-9)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t

let suite =
  [
    ( "sim.stime",
      [
        tc "unit conversions" stime_units;
        tc "arithmetic" stime_arith;
        tc "float conversions" stime_of_float;
        tc "pretty printing" stime_pp;
      ] );
    ( "sim.pheap",
      [
        tc "pops in key order" pheap_order;
        tc "stable among equal keys" pheap_stability;
        tc "peek and sizes" pheap_peek_and_sizes;
        prop pheap_qcheck;
      ] );
    ( "sim.rng",
      [
        tc "deterministic from seed" rng_deterministic;
        tc "split gives independent stream" rng_split_independent;
        tc "exponential positive" rng_exponential_positive;
        prop rng_bounds;
        prop rng_float_bounds;
      ] );
    ( "sim.engine",
      [
        tc "events run in time order" engine_ordering;
        tc "cancellation" engine_cancel;
        tc "relative scheduling" engine_schedule_in;
        tc "no scheduling in the past" engine_no_past;
        tc "run until horizon" engine_until;
        tc "max_events bound" engine_max_events;
        tc "same-time cascade" engine_event_cascades;
      ] );
    ( "sim.cpu",
      [
        tc "serializes work" cpu_serializes;
        tc "interrupt priority" cpu_priority;
        tc "utilization accounting" cpu_utilization;
        tc "queue depth" cpu_queue_depth;
        tc "fifo order across queue growth" cpu_fifo_across_growth;
      ] );
    ( "sim.alloc_budget",
      [
        tc "engine event: schedule + step" alloc_engine_event;
        tc "idle cpu run" alloc_idle_cpu_run;
        tc "untraced jitter builds no detail" alloc_jitter_untraced;
      ] );
    ( "sim.stats",
      [
        tc "series summary" stats_series;
        tc "time samples in us" stats_series_time;
        prop stats_percentile_bounds;
      ] );
  ]
