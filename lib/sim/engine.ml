(* The discrete-event loop.  Events are thunks keyed by their firing time;
   the loop repeatedly pops the earliest event, advances the clock to it and
   runs it.

   Each scheduled event is one mutable [node], which is also its
   cancellation handle, so scheduling allocates the node and nothing
   else.  Firing or cancelling a node swaps its thunk for a static no-op:
   the caller's closure is dropped at once, not at the deadline.

   Nodes live in a hierarchical timer wheel (O(1) schedule, O(1) true
   cancel, amortised O(1) pop): [levels] levels of [slots] =
   2^[slot_bits] buckets.  Level l covers a window of
   2^(slot_bits*(l+1)) ns split into buckets of 2^(slot_bits*l) ns.  A
   node with deadline [key] lives at the level given by the highest bit
   in which [key] differs from the wheel time [cur].  Each bucket is a
   circular doubly-linked list through the nodes themselves, with a
   sentinel.

   A cascade jumps [cur] to the earliest deadline.  The lowest occupied
   bucket, when it is above level 0, holds the wheel's minimum: every
   lower level is empty and every other node lies in a later window.
   Settling moves [cur] to that bucket's minimum key and re-places its
   nodes: those with that key drop straight to level 0, the rest to the
   level of their highest digit that differs from the new [cur].  So a
   node that is the earliest in its bucket when that bucket is cascaded
   is placed twice in all, however far ahead it was scheduled: a lone
   chain of timers costs two placements per event, not one per level
   its deadline descends through.

   Order invariant: every node whose deadline lies within the current
   level-(l+1) window is stored at level <= l.  [cur] only moves
   forward, and only inside the window of the bucket being cascaded,
   whose nodes all move below it; so every other node keeps its level,
   and a cascade always lands in empty lower levels.  Hence a direct add
   into a bucket always carries a larger seq than anything cascaded
   there earlier, cascading preserves list order, and bucket lists stay
   seq-sorted: the head of the lowest occupied slot is the (key, seq)
   minimum.

   The wheel is the only queue.  Looking ahead never moves [cur] past the
   limit of the run that looks: [run ~until] settles no deadline, and
   cascades no bucket, whose earliest deadline is after its horizon.  So
   after any run [cur <= clock], and every schedule, which is never in
   the past, has a key >= [cur] and places straight into the wheel. *)

let slot_bits = 5
let slots = 1 lsl slot_bits (* 32 *)
let slot_mask = slots - 1
let levels = 13 (* 13 * 5 = 65 bits: covers any non-negative OCaml int key *)

type state = Wheel | Dead

type node = {
  key : int; (* deadline, ns *)
  seq : int; (* schedule order: ties between equal keys fire in it *)
  mutable thunk : unit -> unit;
  mutable prev : node;
  mutable next : node;
  mutable bucket : int; (* level * slots + slot, while [state = Wheel] *)
  mutable state : state; (* in the wheel, or done *)
  eng : t;
}

and t = {
  mutable clock : Stime.t;
  nil : node; (* "no node": its [next] is itself, like an empty bucket *)
  mutable buckets : node array array;
      (* [level].[slot] -> list sentinel; set by [create] *)
  occupancy : int array; (* per-level bitmap of non-empty slots *)
  mutable level_occ : int; (* bitmap of levels with any non-empty slot *)
  mutable cur : int; (* wheel time: every key in the wheel is >= cur *)
  mutable live : int; (* nodes in the wheel *)
  mutable placements : int; (* bucket insertions: schedules plus cascades *)
  mutable settled : node;
      (* the level-0 sentinel [settle_slow] last found holding the
         minimum, or [nil].  Only [settle_slow] moves [cur], and it sets
         this whenever it does, so while the bucket is non-empty its
         nodes have key = cur and it still holds the minimum: a later
         schedule has key >= cur and, at key = cur, lands in this very
         bucket behind them. *)
  rng : Rng.t;
  mutable events_run : int;
  mutable next_seq : int;
}

type handle = node

let noop () = ()

let sentinel t =
  let rec s =
    { key = 0; seq = -1; thunk = noop; prev = s; next = s; bucket = -1;
      state = Dead; eng = t }
  in
  s

let create ?(seed = 42) () =
  let rec t =
    {
      clock = Stime.zero;
      nil;
      buckets = [||];
      occupancy = Array.make levels 0;
      level_occ = 0;
      cur = 0;
      live = 0;
      placements = 0;
      settled = nil;
      rng = Rng.create seed;
      events_run = 0;
      next_seq = 0;
    }
  and nil =
    { key = 0; seq = -1; thunk = noop; prev = nil; next = nil; bucket = -1;
      state = Dead; eng = t }
  in
  t.buckets <- Array.init levels (fun _ -> Array.init slots (fun _ -> sentinel t));
  t

let now t = t.clock
let rng t = t.rng
let events_run t = t.events_run
let pending t = t.live
let placements t = t.placements

(* ---- wheel ----------------------------------------------------------- *)

let rec highest_bit x acc =
  if x >= 0x1_0000_0000 then highest_bit (x lsr 32) (acc + 32)
  else if x >= 0x1_0000 then highest_bit (x lsr 16) (acc + 16)
  else if x >= 0x100 then highest_bit (x lsr 8) (acc + 8)
  else if x >= 0x10 then highest_bit (x lsr 4) (acc + 4)
  else if x >= 0x4 then highest_bit (x lsr 2) (acc + 2)
  else if x >= 0x2 then acc + 1
  else acc

(* Index of the least-significant set bit of [x <> 0], by de Bruijn
   multiply: [x land (-x)] isolates that bit, and multiplying by
   [debruijn] leaves a distinct 6-bit pattern in the top bits for each of
   the 63 bit positions (the table's construction asserts it). *)
let debruijn = 0x022fdd63cc95386d

let lowest_bit_table =
  let tbl = Array.make 64 (-1) in
  for k = 0 to 62 do
    let i = ((1 lsl k) * debruijn) lsr 57 in
    assert (tbl.(i) < 0);
    tbl.(i) <- k
  done;
  tbl

let lowest_set_bit x = lowest_bit_table.(((x land (-x)) * debruijn) lsr 57)

(* Append [n] to the bucket of its level (the 5-bit digit group holding
   the highest bit in which its key and [cur] differ) and slot. *)
let place t n =
  let x = n.key lxor t.cur in
  let level = if x = 0 then 0 else highest_bit x 0 / slot_bits in
  let slot = (n.key lsr (slot_bits * level)) land slot_mask in
  let s = t.buckets.(level).(slot) in
  t.placements <- t.placements + 1;
  n.bucket <- (level lsl slot_bits) lor slot;
  n.prev <- s.prev;
  n.next <- s;
  s.prev.next <- n;
  s.prev <- n;
  t.occupancy.(level) <- t.occupancy.(level) lor (1 lsl slot);
  t.level_occ <- t.level_occ lor (1 lsl level)

let clear_bit t level slot =
  let occ = t.occupancy.(level) land lnot (1 lsl slot) in
  t.occupancy.(level) <- occ;
  if occ = 0 then t.level_occ <- t.level_occ land lnot (1 lsl level)

let unlink t n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  let level = n.bucket lsr slot_bits and slot = n.bucket land slot_mask in
  let s = t.buckets.(level).(slot) in
  if s.next == s then clear_bit t level slot;
  n.prev <- t.nil;
  n.next <- t.nil

let rec replace_until t s n =
  if n != s then begin
    let next = n.next in
    place t n;
    replace_until t s next
  end

(* Move every node of bucket [level].[slot] down a level or more.  [cur]
   has just moved to the bucket's minimum key, inside its window, so each
   node maps strictly lower and the earliest to level 0; traversal keeps
   list (= seq) order. *)
let cascade t level slot =
  let s = t.buckets.(level).(slot) in
  clear_bit t level slot;
  let first = s.next in
  s.next <- s;
  s.prev <- s;
  replace_until t s first

let rec min_key s n acc =
  if n == s then acc else min_key s n.next (if n.key < acc then n.key else acc)

(* Advance [cur] to the earliest deadline in the wheel and return the
   level-0 sentinel holding it.  That deadline is the minimum key of the
   lowest occupied bucket; if the bucket is above level 0, cascading it
   around the new [cur] drops its earliest nodes into level 0.  [cur]
   never passes [limit]: return [nil], cascading nothing, when the
   earliest deadline is after it (and when the wheel is empty). *)
let settle_slow t limit =
  if t.level_occ = 0 then t.nil
  else begin
    let l = lowest_set_bit t.level_occ in
    let slot = lowest_set_bit t.occupancy.(l) in
    let s = t.buckets.(l).(slot) in
    (* every node in a level-0 bucket shares one exact deadline *)
    let key = if l = 0 then s.next.key else min_key s s.next max_int in
    if key > limit then t.nil
    else begin
      t.cur <- key;
      if l > 0 then cascade t l slot;
      let s0 = t.buckets.(0).(key land slot_mask) in
      t.settled <- s0;
      s0
    end
  end

let settle t limit =
  let s = t.settled in
  if s.next != s then s else settle_slow t limit

(* ---- events ---------------------------------------------------------- *)

let schedule t ~at thunk =
  let key = Stime.to_ns at in
  if key < Stime.to_ns t.clock then
    invalid_arg "Engine.schedule: cannot schedule in the past";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let n =
    { key; seq; thunk; prev = t.nil; next = t.nil; bucket = -1; state = Wheel;
      eng = t }
  in
  place t n;
  t.live <- t.live + 1;
  n

let schedule_in t ~delay thunk = schedule t ~at:(Stime.add t.clock delay) thunk

let cancel n =
  if n.state = Wheel then begin
    let t = n.eng in
    unlink t n;
    t.live <- t.live - 1;
    n.state <- Dead;
    n.thunk <- noop
  end

(* The earliest live event if its key is at most [limit], else [nil]. *)
let next_event t limit =
  let n = (settle t limit).next in
  if n.key <= limit then n else t.nil

let fire t n =
  unlink t n;
  t.live <- t.live - 1;
  n.state <- Dead;
  t.clock <- Stime.ns n.key;
  let k = n.thunk in
  n.thunk <- noop;
  t.events_run <- t.events_run + 1;
  k ()

let step t =
  let n = next_event t max_int in
  n != t.nil && (fire t n; true)

let rec run_from t ~limit ~max_events count =
  if count < max_events then begin
    let n = next_event t limit in
    if n != t.nil then begin
      fire t n;
      run_from t ~limit ~max_events (count + 1)
    end
  end

let run ?until ?(max_events = max_int) t =
  let limit = match until with Some l -> Stime.to_ns l | None -> max_int in
  run_from t ~limit ~max_events 0;
  (* If we stopped because of the horizon, advance the clock to it so that
     utilization windows are well-defined. *)
  match until with
  | Some l when Stime.compare t.clock l < 0 -> t.clock <- l
  | _ -> ()
