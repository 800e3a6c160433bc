(* A single processor with two service priorities.

   Work items are (cost, continuation) pairs.  The CPU serves one item at a
   time; interrupt-priority work is always dequeued before thread-priority
   work, modelling SPIN's distinction between interrupt-level handlers and
   kernel threads, and DIGITAL UNIX's interrupt vs. process split.  Service
   is non-preemptive, which matches per-packet protocol work whose units are
   tens of microseconds.

   The continuation runs at the moment its work *completes*, so a chain of
   [run] calls naturally yields end-to-end latency including queueing. *)

type prio = Interrupt | Thread

(* A FIFO of work items as two parallel arrays in a power-of-two ring, so
   queueing an item allocates nothing once the ring has grown. *)
type ring = {
  mutable costs : Stime.t array;
  mutable ks : (unit -> unit) array;
  mutable head : int;
  mutable len : int;
}

type t = {
  engine : Engine.t;
  name : string;
  intr_q : ring;
  thread_q : ring;
  mutable busy : bool;
  (* the item in service, valid while [busy] *)
  mutable cur_cost : Stime.t;
  mutable cur_k : unit -> unit;
  complete : unit -> unit; (* the completion thunk, shared by every item *)
  mutable reserved_until : Stime.t;
      (* CPU time charged inline via [charge], with no work item of its
         own: service of queued work is pushed past this instant *)
  mutable busy_ns : Stime.t;         (* accumulated service time *)
  mutable window_start : Stime.t;    (* start of the accounting window *)
  mutable window_busy : Stime.t;     (* busy time within the window *)
  mutable served : int;
}

let noop () = ()

let ring () =
  { costs = Array.make 8 Stime.zero; ks = Array.make 8 noop; head = 0; len = 0 }

let grow r =
  let cap = Array.length r.ks in
  let costs = Array.make (2 * cap) Stime.zero and ks = Array.make (2 * cap) noop in
  for i = 0 to r.len - 1 do
    let j = (r.head + i) land (cap - 1) in
    costs.(i) <- r.costs.(j);
    ks.(i) <- r.ks.(j)
  done;
  r.costs <- costs;
  r.ks <- ks;
  r.head <- 0

let push r cost k =
  if r.len = Array.length r.ks then grow r;
  let i = (r.head + r.len) land (Array.length r.ks - 1) in
  r.costs.(i) <- cost;
  r.ks.(i) <- k;
  r.len <- r.len + 1

let serve t ~cost k =
  t.busy <- true;
  (* an outstanding inline charge delays service of queued work *)
  let wait =
    Stime.max Stime.zero (Stime.sub t.reserved_until (Engine.now t.engine))
  in
  t.cur_cost <- cost;
  t.cur_k <- k;
  ignore (Engine.schedule_in t.engine ~delay:(Stime.add wait cost) t.complete)

let serve_head t r =
  let i = r.head in
  let cost = r.costs.(i) and k = r.ks.(i) in
  r.ks.(i) <- noop;
  r.head <- (i + 1) land (Array.length r.ks - 1);
  r.len <- r.len - 1;
  serve t ~cost k

let service t =
  if t.intr_q.len > 0 then serve_head t t.intr_q
  else if t.thread_q.len > 0 then serve_head t t.thread_q
  else t.busy <- false

let complete t =
  let cost = t.cur_cost and k = t.cur_k in
  t.cur_k <- noop;
  t.busy_ns <- Stime.add t.busy_ns cost;
  t.window_busy <- Stime.add t.window_busy cost;
  t.served <- t.served + 1;
  k ();
  service t

let create engine ~name =
  let rec t =
    {
      engine;
      name;
      intr_q = ring ();
      thread_q = ring ();
      busy = false;
      cur_cost = Stime.zero;
      cur_k = noop;
      complete = (fun () -> complete t);
      reserved_until = Stime.zero;
      busy_ns = Stime.zero;
      window_start = Stime.zero;
      window_busy = Stime.zero;
      served = 0;
    }
  in
  t

let name t = t.name
let engine t = t.engine
let busy_time t = t.busy_ns
let served t = t.served

(* Account CPU work performed inline by the caller, with no work item and
   no engine event: the CPU is reserved until now + cost, so pending and
   future work items are served only after the reservation elapses.  Used
   by the dispatcher's flow-path replay, which runs a whole cached chain
   synchronously and charges its modelled cost in one step. *)
let charge t ~cost =
  let now = Engine.now t.engine in
  let base = Stime.max now t.reserved_until in
  t.reserved_until <- Stime.add base cost;
  t.busy_ns <- Stime.add t.busy_ns cost;
  t.window_busy <- Stime.add t.window_busy cost

let run t ?(prio = Thread) ~cost k =
  if not t.busy then
    (* idle CPU: the queues are empty (service drains them before
       clearing [busy]), so skip the queue round-trip entirely *)
    serve t ~cost k
  else
    push (match prio with Interrupt -> t.intr_q | Thread -> t.thread_q) cost k

let reset_window t =
  t.window_start <- Engine.now t.engine;
  t.window_busy <- Stime.zero

let utilization t =
  let elapsed = Stime.sub (Engine.now t.engine) t.window_start in
  let e = Stime.to_ns elapsed in
  if e <= 0 then 0.0
  else
    let u = Stime.to_ns t.window_busy in
    float_of_int u /. float_of_int e

let queue_depth t = t.intr_q.len + t.thread_q.len
