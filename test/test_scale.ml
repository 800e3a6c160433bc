(* Million-flow steady-state structures: the engine's timer wheel
   (equivalence with a Pheap oracle, true cancellation), the sharded
   CLOCK cache, and ephemeral port allocation. *)

let us = Sim.Stime.us

(* ---- timer wheel ----------------------------------------------------- *)

(* Oracle equivalence: the engine must fire in exactly the (key, seq)
   order of a stable binary heap, under arbitrary interleavings of
   schedule, cancel, step and [run ~until].  [run ~until] stops short of
   the next deadline without moving the wheel's time past its horizon,
   so later schedules anywhere from the horizon on, including ties with
   pending deadlines, must still come out in the heap's order.  Some
   events schedule a child when they fire, as protocol timers do. *)
type op =
  | Add of int * int option (* delay, child delay scheduled on firing *)
  | Past (* schedule before now: must raise and change nothing *)
  | Cancel of int (* the i-th most recent live event *)
  | Cancel_dead (* a fired or cancelled handle: no-op *)
  | Step
  | Until of int
  | Add_at of int (* absolute deadline; skipped once it is behind now *)
  | Until_at of int (* absolute horizon; skipped once it is behind now *)

let delay_gen =
  QCheck.Gen.(
    frequency
      [ (4, int_bound 64); (4, int_bound 5000); (1, int_bound 10_000_000) ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun d c -> Add (d, c)) delay_gen (opt ~ratio:0.2 delay_gen));
        (1, return Past);
        (2, map (fun i -> Cancel i) (int_bound 50));
        (1, return Cancel_dead);
        (3, return Step);
        (2, map (fun d -> Until d) delay_gen);
      ])

let op_print = function
  | Add (d, None) -> Printf.sprintf "Add %d" d
  | Add (d, Some c) -> Printf.sprintf "Add %d then %d" d c
  | Past -> "Past"
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Cancel_dead -> "Cancel_dead"
  | Step -> "Step"
  | Until d -> Printf.sprintf "Until +%d" d
  | Add_at k -> Printf.sprintf "Add_at %d" k
  | Until_at k -> Printf.sprintf "Until_at %d" k

(* Many deadlines packed into one bucket of a high wheel level, read
   from a fresh engine (wheel time 0): level [level] slot [slot] spans
   [start, start + width).  Horizons fall between the window's start and
   the earliest deadline in it, so [run ~until] must leave the bucket
   alone; steps and plain adds (which land in the same window once the
   clock has entered it) interleave with them. *)
let packed_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun level ->
    int_range 1 31 >>= fun slot ->
    let width = 1 lsl (5 * level) in
    let start = slot * width in
    int_bound (width - 1) >>= fun lo ->
    let key = map (fun o -> Add_at (start + lo + o)) (int_bound (width - 1 - lo)) in
    let horizon = map (fun o -> Until_at (start + o)) (int_bound lo) in
    list_size (10 -- 120)
      (frequency
         [
           (8, key);
           (3, horizon);
           (1, map (fun d -> Add (d, None)) delay_gen);
           (1, return Step);
         ]))

let ops_gen =
  QCheck.Gen.(
    frequency
      [
        (1, list_size (0 -- 200) op_gen);
        (1, map2 ( @ ) packed_gen (list_size (0 -- 100) op_gen));
      ])

let engine_matches_pheap ops =
  let e = Sim.Engine.create () in
  let handles = Hashtbl.create 16 (* id -> engine handle *) in
  let child = Hashtbl.create 16 (* id -> child delay *) in
  let fired = ref [] (* ids in engine firing order, newest first *) in
  let child_id id = -id - 1 in
  let rec engine_add ~at id =
    let h =
      Sim.Engine.schedule e ~at:(Sim.Stime.ns at) (fun () ->
          fired := id :: !fired;
          match Hashtbl.find_opt child id with
          | Some c ->
              engine_add ~at:(Sim.Stime.to_ns (Sim.Engine.now e) + c) (child_id id)
          | None -> ())
    in
    Hashtbl.replace handles id h
  in
  (* the model: a stable heap of ids by deadline, plus the live set *)
  let model = Pheap.create () and live = Hashtbl.create 16 in
  let model_add ~at id =
    Pheap.add model ~key:at id;
    Hashtbl.replace live id ()
  in
  let rec model_min () =
    match Pheap.peek_min model with
    | Some (_, id) when not (Hashtbl.mem live id) ->
        ignore (Pheap.pop_min model);
        model_min ()
    | m -> m
  in
  (* fire the model's events up to [limit] (at most [n] of them) *)
  let model_run ~limit n =
    let rec go n acc =
      match model_min () with
      | Some (at, id) when n > 0 && at <= limit ->
          ignore (Pheap.pop_min model);
          Hashtbl.remove live id;
          Option.iter (fun c -> model_add ~at:(at + c) (child_id id))
            (Hashtbl.find_opt child id);
          go (n - 1) ((at, id) :: acc)
      | _ -> acc
    in
    go n []
  in
  let dead = ref [] (* handles of fired or cancelled events *) in
  let next_id = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  let now () = Sim.Stime.to_ns (Sim.Engine.now e) in
  (* run one side, then the other, and compare what fired *)
  let both engine_side ~limit n =
    fired := [];
    let expect = model_run ~limit n in
    engine_side ();
    check (!fired = List.map snd expect);
    List.iter (fun id -> dead := Hashtbl.find handles id :: !dead) !fired;
    expect
  in
  let add ~at cd =
    let id = !next_id in
    incr next_id;
    Option.iter (Hashtbl.replace child id) cd;
    engine_add ~at id;
    model_add ~at id
  in
  let run_until limit =
    ignore
      (both (fun () -> Sim.Engine.run e ~until:(Sim.Stime.ns limit)) ~limit
         max_int);
    check (now () = limit)
  in
  List.iter
    (fun op ->
      (match op with
      | Add (d, cd) -> add ~at:(now () + d) cd
      | Past ->
          if now () > 0 then
            check
              (match
                 Sim.Engine.schedule e ~at:(Sim.Stime.ns (now () - 1)) ignore
               with
              | _ -> false
              | exception Invalid_argument _ -> true)
      | Cancel i -> (
          let ids =
            List.sort (fun a b -> compare b a)
              (Hashtbl.fold (fun id () acc -> id :: acc) live [])
          in
          match List.nth_opt ids i with
          | Some id ->
              let h = Hashtbl.find handles id in
              Sim.Engine.cancel h;
              Sim.Engine.cancel h (* idempotent *);
              Hashtbl.remove live id;
              dead := h :: !dead
          | None -> ())
      | Cancel_dead -> (
          match !dead with h :: _ -> Sim.Engine.cancel h | [] -> ())
      | Step -> (
          let stepped = ref false in
          match both (fun () -> stepped := Sim.Engine.step e) ~limit:max_int 1 with
          | [ (at, _) ] -> check (!stepped && now () = at)
          | _ -> check (not !stepped))
      | Add_at k -> if k >= now () then add ~at:k None
      | Until d -> run_until (now () + d)
      | Until_at k -> if k >= now () then run_until k);
      check (Sim.Engine.pending e = Hashtbl.length live))
    ops;
  (* drain both: remainders must agree too *)
  ignore (both (fun () -> Sim.Engine.run e) ~limit:max_int max_int);
  !ok && Sim.Engine.pending e = 0

let wheel_oracle_qcheck =
  QCheck.Test.make ~count:1000 ~name:"timer wheel fires in pheap order"
    QCheck.(make ~print:(fun l -> String.concat "; " (List.map op_print l))
              ops_gen)
    engine_matches_pheap

let wheel_long_range () =
  (* deadlines spread over every wheel level fire in order: one key at
     each bit position 0-61 (so at every level 0-12), mixed with keys
     that share a bucket with them *)
  let e = Sim.Engine.create () in
  let keys =
    List.init 62 (fun b -> 1 lsl b)
    @ [ 1_000_000; 31; 33; 1_000; 32_767; 123_456_789; 1_000_000_000_000;
        4611686018427387903 (* max_int/2 *) ]
  in
  let fired = ref [] in
  List.iter
    (fun k ->
      ignore
        (Sim.Engine.schedule e ~at:(Sim.Stime.ns k) (fun () ->
             fired := Sim.Stime.to_ns (Sim.Engine.now e) :: !fired)))
    keys;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "sorted across levels" (List.sort compare keys)
    (List.rev !fired)

(* A chain of lone events 1-60 us apart, each scheduling the next: a
   deadline settles with one cascade, so the wheel makes at most two
   placements (the schedule and that cascade) per fired event. *)
let wheel_placements_per_event () =
  let e = Sim.Engine.create () in
  let n = 10_000 in
  let rec next i () =
    if i < n then
      ignore
        (Sim.Engine.schedule_in e ~delay:(us (1 + (i * 7 mod 60))) (next (i + 1)))
  in
  next 0 ();
  Sim.Engine.run e;
  Alcotest.(check int) "all fired" n (Sim.Engine.events_run e);
  let per_event =
    float_of_int (Sim.Engine.placements e) /. float_of_int n
  in
  if per_event > 2. then
    Alcotest.failf "%.2f placements per fired event, want <= 2" per_event

let wheel_mass_cancel () =
  (* 100k pending, mass-cancel, wheel must be observably empty *)
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let handles =
    List.init 100_000 (fun i ->
        Sim.Engine.schedule e ~at:(us (1 + (i mod 997))) (fun () -> incr fired))
  in
  Alcotest.(check int) "100k pending" 100_000 (Sim.Engine.pending e);
  List.iter Sim.Engine.cancel handles;
  Alcotest.(check int) "pending reports only live events" 0
    (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check int) "nothing fires" 0 !fired;
  Alcotest.(check int) "no events counted" 0 (Sim.Engine.events_run e)

let wheel_cancel_drops_thunk () =
  (* a cancelled event's closure is released eagerly: the weak pointer
     to its environment dies before the deadline is reached *)
  let e = Sim.Engine.create () in
  let payload = ref (Some (String.make 1024 'x')) in
  let wp = Weak.create 1 in
  (match !payload with Some s -> Weak.set wp 0 (Some s) | None -> ());
  let h =
    Sim.Engine.schedule e ~at:(us 1000) (fun () ->
        match !payload with Some s -> ignore (String.length s) | None -> ())
  in
  payload := None;
  Sim.Engine.cancel h;
  Gc.full_major ();
  Alcotest.(check bool) "closure environment collected" false
    (Weak.check wp 0);
  Sim.Engine.run e

let engine_behind_horizon () =
  (* run ~until stops short of the next pending deadline; later schedules
     anywhere between the horizon and that deadline must still fire in
     order, one at exactly the horizon first, and one at the pending
     event's own deadline after it, in schedule (seq) order *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  let add t name =
    ignore (Sim.Engine.schedule e ~at:(us t) (fun () -> log := name :: !log))
  in
  add 100 "100a";
  Sim.Engine.run e ~until:(us 50);
  (* schedule inside (50,100), then at both ends *)
  add 60 "60";
  add 80 "80";
  add 50 "50";
  add 100 "100b";
  Alcotest.(check int) "five pending" 5 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "order preserved, tie in seq order"
    [ "50"; "60"; "80"; "100a"; "100b" ]
    (List.rev !log)

let cache_eviction () =
  let ev = ref 0 in
  let c = Spin.Sharded.Cache.create ~shards:1 ~per_shard:8 ~evictions:ev () in
  Alcotest.(check int) "capacity" 8 (Spin.Sharded.Cache.capacity c);
  for i = 0 to 7 do
    Spin.Sharded.Cache.put c (string_of_int i) i
  done;
  Alcotest.(check int) "full" 8 (Spin.Sharded.Cache.length c);
  Alcotest.(check int) "no eviction below capacity" 0 !ev;
  (* keep "0" hot so CLOCK passes over it *)
  Alcotest.(check (option int)) "hit" (Some 0)
    (Spin.Sharded.Cache.find_opt c "0");
  Spin.Sharded.Cache.put c "8" 8;
  Alcotest.(check int) "bounded" 8 (Spin.Sharded.Cache.length c);
  Alcotest.(check int) "one eviction" 1 !ev;
  Alcotest.(check (option int)) "new entry present" (Some 8)
    (Spin.Sharded.Cache.find_opt c "8");
  Spin.Sharded.Cache.remove c "8";
  Alcotest.(check (option int)) "remove" None
    (Spin.Sharded.Cache.find_opt c "8");
  Spin.Sharded.Cache.put c "9" 9;
  Alcotest.(check int) "hole reused, no eviction" 1 !ev

let cache_clock_keeps_hot () =
  let c = Spin.Sharded.Cache.create ~shards:1 ~per_shard:8 () in
  for i = 0 to 7 do
    Spin.Sharded.Cache.put c (string_of_int i) i
  done;
  (* first overflow sweeps every reference bit clear and evicts one *)
  Spin.Sharded.Cache.put c "8" 8;
  Alcotest.(check int) "one eviction so far" 1
    (Spin.Sharded.Cache.evictions c);
  (* re-reference every survivor except "2": the next insert must pass
     over the hot entries and claim the cold one *)
  List.iter
    (fun k -> ignore (Spin.Sharded.Cache.find_opt c k))
    [ "1"; "3"; "4"; "5"; "6"; "7"; "8" ];
  Spin.Sharded.Cache.put c "9" 9;
  Alcotest.(check (option int)) "cold entry evicted" None
    (Spin.Sharded.Cache.find_opt c "2");
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (k ^ " survives") true
        (Spin.Sharded.Cache.find_opt c k <> None))
    [ "1"; "3"; "4"; "5"; "6"; "7"; "8"; "9" ]

let cache_grows () =
  let c = Spin.Sharded.Cache.create ~shards:1 ~per_shard:1024 () in
  for i = 0 to 999 do
    Spin.Sharded.Cache.put c (string_of_int i) i
  done;
  Alcotest.(check int) "grew without eviction" 1000
    (Spin.Sharded.Cache.length c);
  Alcotest.(check int) "no evictions" 0 (Spin.Sharded.Cache.evictions c);
  for i = 0 to 999 do
    Alcotest.(check bool) "still present" true
      (Spin.Sharded.Cache.find_opt c (string_of_int i) <> None)
  done

(* ---- rng ------------------------------------------------------------- *)

let pareto_support =
  QCheck.Test.make ~name:"pareto stays on [scale, inf)" QCheck.small_int
    (fun seed ->
      let r = Sim.Rng.create seed in
      List.for_all
        (fun _ -> Sim.Rng.pareto r ~shape:1.2 ~scale:3.0 >= 3.0)
        (List.init 50 Fun.id))

(* ---- tcp ephemeral ports ---------------------------------------------- *)

let eph_range = 60999 - 32768 + 1

let ephemeral_exhaustion () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let tcp = Plexus.Stack.tcp p.Experiments.Common.a in
  let dst = (Experiments.Common.ip_b, 80) in
  let first = ref None in
  for _ = 1 to eph_range do
    match Plexus.Tcp_mgr.connect tcp ~owner:"t" ~dst () with
    | Ok c -> if !first = None then first := Some c
    | Error _ -> Alcotest.fail "allocation failed before exhaustion"
  done;
  (* every port now holds a live connection to this destination *)
  (match Plexus.Tcp_mgr.connect tcp ~owner:"t" ~dst () with
  | Error `Ephemeral_exhausted -> ()
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error (`Port_in_use _) -> Alcotest.fail "wrong error");
  Alcotest.(check int) "exhaustion counted" 1
    (Plexus.Tcp_mgr.counters tcp).Plexus.Tcp_mgr.eph_exhausted;
  (* a different destination tuple is unaffected *)
  (match
     Plexus.Tcp_mgr.connect tcp ~owner:"t"
       ~dst:(Experiments.Common.ip_b, 81) ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "tuple reuse should allow other destinations");
  (* releasing one connection frees its port for the exhausted tuple *)
  (match !first with Some c -> Plexus.Tcp_mgr.abort c | None -> ());
  match Plexus.Tcp_mgr.connect tcp ~owner:"t" ~dst () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "closed connection should free its port"

let explicit_port_released () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let tcp = Plexus.Stack.tcp p.Experiments.Common.a in
  let dst = (Experiments.Common.ip_b, 80) in
  let c1 =
    match Plexus.Tcp_mgr.connect tcp ~owner:"t" ~src_port:5555 ~dst () with
    | Ok c -> c
    | Error _ -> Alcotest.fail "explicit connect"
  in
  (match Plexus.Tcp_mgr.connect tcp ~owner:"t" ~src_port:5555 ~dst () with
  | Error (`Port_in_use 5555) -> ()
  | _ -> Alcotest.fail "live explicit port must conflict");
  Plexus.Tcp_mgr.abort c1;
  match Plexus.Tcp_mgr.connect tcp ~owner:"t" ~src_port:5555 ~dst () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "explicit port must be released on close"

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t

let suite =
  [
    ( "scale.timer_wheel",
      [
        prop wheel_oracle_qcheck;
        tc "keys across all levels" wheel_long_range;
        tc "at most two placements per chained event" wheel_placements_per_event;
        tc "100k pending, mass cancel" wheel_mass_cancel;
        tc "cancel drops the closure eagerly" wheel_cancel_drops_thunk;
        tc "schedule behind a peeked horizon" engine_behind_horizon;
      ] );
    ( "scale.sharded",
      [
        tc "cache bounded with eviction" cache_eviction;
        tc "clock keeps referenced entries" cache_clock_keeps_hot;
        tc "cache grows to capacity first" cache_grows;
      ] );
    ( "scale.workload",
      [ prop pareto_support ] );
    ( "scale.ephemeral",
      [
        tc "exhaustion surfaces and frees on close" ephemeral_exhaustion;
        tc "explicit port released on close" explicit_port_released;
      ] );
  ]
