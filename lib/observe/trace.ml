(* The per-packet recorder: structured trace spans with pluggable sinks,
   and a sampled ring of flight records in the same vocabulary.

   Every per-packet site emits one typed event — raise, index lookup,
   guard evaluation, handler run, ephemeral commit, ingress, queue wait,
   delivery, drop, handoff — stamped with the simulated time, through
   one [note] call on its kernel's endpoint.  The endpoint sends it to
   the sink when the site is traced, and to the flight ring when the
   packet's mark is sampled.

   [Null] is the default sink and sampling starts off; both MUST be free
   on the hot path: emitters guard event construction with
   [if Trace.active tr || Trace.samples tr mark then ...], so a disabled
   endpoint costs a field load and a branch per site. *)

type event =
  | Raise of { event : string; candidates : int; indexed : bool }
  | Index_lookup of { event : string; keys : int; candidates : int }
  | Guard_eval of { event : string; hid : int; label : string; hit : bool }
  | Handler_run of {
      event : string;
      hid : int;
      label : string;
      duration_ns : int;
    }
  | Ephemeral_commit of {
      event : string;
      hid : int;
      label : string;
      committed : int;
      total : int;
      duration_ns : int;
    }
  | Terminated of {
      event : string;
      hid : int;
      label : string;
      committed : int;
      total : int;
      duration_ns : int;
    }
  | Cache_hit of { event : string; hops : int; handlers : int }
  | Cache_invalidate of { event : string; reason : string }
  | Drop of { scope : string; reason : string }
  | Wire_fault of { link : string; fault : string; detail : string }
  | Ingress of { dev : string }
  | Queue_wait of { dev : string }
  | Deliver of { scope : string }
  | Handoff of {
      op : string; (* "enqueue" | "self_drain" | "phase_b_drain" *)
      from_domain : int;
      to_domain : int;
      frames : int;
    }

(* Defined before [span] so that an unqualified [{ at_ns; event }]
   still builds a span. *)
type record = {
  pkt : int;
  domain : int;
  at_ns : int;
  dur_ns : int;
  event : event;
}

type span = { at_ns : int; event : event }

let kind = function
  | Raise _ -> "raise"
  | Index_lookup _ -> "index_lookup"
  | Guard_eval _ -> "guard_eval"
  | Handler_run _ -> "handler_run"
  | Ephemeral_commit _ -> "ephemeral_commit"
  | Terminated _ -> "terminated"
  | Cache_hit _ -> "cache_hit"
  | Cache_invalidate _ -> "cache_invalidate"
  | Drop _ -> "drop"
  | Wire_fault _ -> "wire_fault"
  | Ingress _ -> "ingress"
  | Queue_wait _ -> "queue_wait"
  | Deliver _ -> "deliver"
  | Handoff _ -> "handoff"

(* The event (or scope) a span belongs to — protocol-graph spans carry
   their node's event name, e.g. "udp.PacketRecv". *)
let scope = function
  | Raise { event; _ }
  | Index_lookup { event; _ }
  | Guard_eval { event; _ }
  | Handler_run { event; _ }
  | Ephemeral_commit { event; _ }
  | Terminated { event; _ }
  | Cache_hit { event; _ }
  | Cache_invalidate { event; _ } ->
      event
  | Drop { scope; _ } | Deliver { scope } -> scope
  | Wire_fault { link; _ } -> link
  | Ingress { dev } | Queue_wait { dev } -> dev
  | Handoff { from_domain; _ } -> Printf.sprintf "domain%d" from_domain

let pp_ns ppf t =
  if t < 1_000 then Fmt.pf ppf "%dns" t
  else if t < 1_000_000 then Fmt.pf ppf "%.2fus" (float_of_int t /. 1e3)
  else if t < 1_000_000_000 then Fmt.pf ppf "%.3fms" (float_of_int t /. 1e6)
  else Fmt.pf ppf "%.3fs" (float_of_int t /. 1e9)

let pp_event ppf = function
  | Raise { event; candidates; indexed } ->
      Fmt.pf ppf "raise %s candidates=%d%s" event candidates
        (if indexed then " (indexed)" else "")
  | Index_lookup { event; keys; candidates } ->
      Fmt.pf ppf "index_lookup %s keys=%d candidates=%d" event keys candidates
  | Guard_eval { event; hid; label; hit } ->
      Fmt.pf ppf "guard_eval %s %s(h%d) %s" event label hid
        (if hit then "hit" else "miss")
  | Handler_run { event; hid; label; duration_ns } ->
      Fmt.pf ppf "handler_run %s %s(h%d) took %a" event label hid pp_ns
        duration_ns
  | Ephemeral_commit { event; hid; label; committed; total; duration_ns } ->
      Fmt.pf ppf "ephemeral_commit %s %s(h%d) %d/%d actions in %a" event label
        hid committed total pp_ns duration_ns
  | Terminated { event; hid; label; committed; total; duration_ns } ->
      Fmt.pf ppf "terminated %s %s(h%d) after %d/%d actions at budget %a"
        event label hid committed total pp_ns duration_ns
  | Cache_hit { event; hops; handlers } ->
      Fmt.pf ppf "cache_hit %s hops=%d handlers=%d" event hops handlers
  | Cache_invalidate { event; reason } ->
      Fmt.pf ppf "cache_invalidate %s reason=%s" event reason
  | Drop { scope; reason } -> Fmt.pf ppf "drop %s reason=%s" scope reason
  | Wire_fault { link; fault; detail } ->
      Fmt.pf ppf "wire_fault %s %s%s" link fault
        (if detail = "" then "" else " " ^ detail)
  | Ingress { dev } -> Fmt.pf ppf "ingress %s" dev
  | Queue_wait { dev } -> Fmt.pf ppf "queue_wait %s" dev
  | Deliver { scope } -> Fmt.pf ppf "deliver %s" scope
  | Handoff { op; from_domain; to_domain; frames } ->
      Fmt.pf ppf "handoff %s domain%d -> domain%d frames=%d" op from_domain
        to_domain frames

let pp_span ppf s = Fmt.pf ppf "[%a] %a" pp_ns s.at_ns pp_event s.event

module Ring = Ring

(* --- endpoints ---------------------------------------------------------- *)

type sink = Null | Stderr | Ring of span Ring.t

type t = {
  mutable sink : sink;
  seed : int;
  mutable rate : int; (* 0 = sampling off, N = sample 1-in-N *)
  mutable domain : int;
  mutable seen : int;
  mutable sampled : int;
  flight : record Ring.t;
}

let create ?(sink = Null) () =
  {
    sink;
    seed = 0;
    rate = 0;
    domain = 0;
    seen = 0;
    sampled = 0;
    flight = Ring.create ~capacity:4096 ();
  }

let set_sink t s = t.sink <- s
let sink t = t.sink
let[@inline] active t = match t.sink with Null -> false | _ -> true
let[@inline] samples t mark = mark > 0 && t.rate > 0

let emit t span =
  match t.sink with
  | Null -> ()
  | Stderr -> Fmt.epr "%a@." pp_span span
  | Ring r -> Ring.push r span

(* A handler run's duration is known at emission; since-ingress
   latencies are derived when the records are read. *)
let duration = function
  | Handler_run { duration_ns; _ }
  | Ephemeral_commit { duration_ns; _ }
  | Terminated { duration_ns; _ } ->
      duration_ns
  | _ -> 0

let note t ~traced ~mark ~at_ns event =
  if traced then emit t { at_ns; event };
  if samples t mark then
    Ring.push t.flight
      { pkt = mark; domain = t.domain; at_ns; dur_ns = duration event; event }
