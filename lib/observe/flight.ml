(* Packet flight recorder: the sampled side of a trace endpoint.

   The endpoint ([Trace.t]) makes the ingress sampling decision
   (deterministic 1-in-N, keyed off a seeded mix so the sampled set is a
   pure function of [seed], [rate] and arrival ordinals), hands out
   packet ids that ride on the mbuf ([Packet.Mbuf.mark]), and keeps the
   trace events of sampled packets in its bounded flight ring.  This
   module is the sampling decision and the read side: records,
   per-packet timelines and their text and JSON forms.

   One endpoint per kernel (and per domain in the parallel datapath);
   per-domain rings are folded together with [merge_into] at snapshot
   time, each record keeping the domain that emitted it, so a packet
   forwarded across an SPSC ring shows up as one timeline whose events
   carry their home domain. *)

type t = Trace.t

type record = Trace.record = {
  pkt : int;
  domain : int;
  at_ns : int;
  dur_ns : int;
  event : Trace.event;
}

let create ?(capacity = 4096) ?(rate = 0) ~seed () =
  if rate < 0 then invalid_arg "Flight.create: rate";
  { (Trace.create ()) with seed; rate; flight = Ring.create ~capacity () }
let enabled (t : t) = t.rate > 0
let rate (t : t) = t.rate

let set_rate (t : t) r =
  if r < 0 then invalid_arg "Flight.set_rate" else t.rate <- r

let seed (t : t) = t.seed
let domain (t : t) = t.domain
let set_domain (t : t) d = t.domain <- d
let seen (t : t) = t.seen
let sampled (t : t) = t.sampled
let capacity (t : t) = Ring.capacity t.flight
let length (t : t) = Ring.length t.flight
let dropped (t : t) = Ring.dropped t.flight

(* splitmix64-style finalizer over OCaml's native ints (overflow wraps,
   which is exactly what a mixer wants).  Kept local so [observe] stays
   free of a [sim] dependency; this is NOT [Sim.Rng], but it obeys the
   same contract: a pure function of (seed, n). *)
let mix seed n =
  let z = seed lxor (n * 0x9E3779B97F4A7C) in
  let z = (z lxor (z lsr 30)) * 0xBF58476D1CE4E5 in
  let z = (z lxor (z lsr 27)) * 0x94D049BB133111 in
  (z lxor (z lsr 31)) land max_int

(* The sampling decision for arrival ordinal [n] (1-based): the packet
   id [n] when sampled, 0 otherwise.  Pure, so the parallel datapath can
   pre-compute marks from a frame plan and every domain agrees. *)
let mark_for ~seed ~rate n =
  if rate <= 0 || n <= 0 then 0
  else if rate = 1 then n
  else if mix seed n mod rate = 0 then n
  else 0

(* Ingress admission: count the arrival and decide.  Returns the mark to
   stamp on the mbuf (0 = not sampled). *)
let admit (t : t) =
  if t.rate = 0 then 0
  else begin
    t.seen <- t.seen + 1;
    let m = mark_for ~seed:t.seed ~rate:t.rate t.seen in
    if m > 0 then t.sampled <- t.sampled + 1;
    m
  end

(* Out-of-band admission: the parallel datapath decides sampling from
   the shared frame plan ([mark_for] on the plan seed) rather than this
   recorder's own arrival counter, then tallies the outcome here so
   seen/sampled stay meaningful per domain (and sum under merge). *)
let tally (t : t) ~sampled =
  t.seen <- t.seen + 1;
  if sampled then t.sampled <- t.sampled + 1

let clear (t : t) =
  Ring.clear t.flight;
  t.seen <- 0;
  t.sampled <- 0

(* The stages whose duration is the latency since the packet's ingress;
   a cache-replayed raise counts as a raise. *)
let since_ingress : Trace.event -> bool = function
  | Raise _ | Cache_hit _ | Queue_wait _ | Deliver _ | Drop _ -> true
  | _ -> false

(* Oldest retained record first.  Each since-ingress stage is measured
   from the latest [Ingress] of the same packet in the same domain that
   precedes it — the ring is in emission order, so one pass suffices. *)
let records (t : t) =
  let origins = Hashtbl.create 64 in
  List.map
    (fun r ->
      match r.event with
      | Ingress _ ->
          Hashtbl.replace origins (r.pkt, r.domain) r.at_ns;
          r
      | e when since_ingress e -> (
          match Hashtbl.find_opt origins (r.pkt, r.domain) with
          | Some o when r.at_ns >= o -> { r with dur_ns = r.at_ns - o }
          | _ -> r)
      | _ -> r)
    (Ring.to_list t.flight)

(* Fold [src]'s records into [into], preserving each record's home
   domain (stamped at emission).  Counters accumulate so a merged
   endpoint reports fleet-wide sampling totals. *)
let merge_into ~(into : t) (src : t) =
  Ring.merge_into ~into:into.flight src.flight;
  into.seen <- into.seen + src.seen;
  into.sampled <- into.sampled + src.sampled

(* Group records into per-packet timelines: packet ids ascending, each
   packet's records in emission order.  Records from different domains
   carry incomparable clocks, so ordering within a packet is the merge
   order (per-domain emission order), not a timestamp sort. *)
let timelines recs =
  let tbl = Hashtbl.create 64 in
  let ids = ref [] in
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.pkt with
      | Some rs -> rs := r :: !rs
      | None ->
          ids := r.pkt :: !ids;
          Hashtbl.replace tbl r.pkt (ref [ r ]))
    recs;
  List.sort compare !ids
  |> List.map (fun pkt -> (pkt, List.rev !(Hashtbl.find tbl pkt)))

let stage_name : Trace.event -> string = function
  | Raise _ | Cache_hit _ -> "raise"
  | Handler_run _ | Ephemeral_commit _ | Terminated _ -> "handler"
  | Handoff _ -> "hop"
  | e -> Trace.kind e

let stage_detail : Trace.event -> string = function
  | Handler_run { event; label; _ }
  | Ephemeral_commit { event; label; _ }
  | Terminated { event; label; _ } ->
      event ^ "." ^ label
  | Handoff { from_domain; to_domain; _ } ->
      Printf.sprintf "d%d->d%d" from_domain to_domain
  | Drop { scope; reason } -> scope ^ ":" ^ reason
  | e -> Trace.scope e

let pp_stage ppf (e : Trace.event) =
  match e with
  | Handoff { from_domain; to_domain; _ } ->
      Fmt.pf ppf "hop domain%d -> domain%d" from_domain to_domain
  | Drop { scope; reason } -> Fmt.pf ppf "drop %s (%s)" scope reason
  | e -> Fmt.pf ppf "%s %s" (stage_name e) (stage_detail e)

let pp_record ppf r =
  Fmt.pf ppf "pkt=%d d%d @%dns +%dns %a" r.pkt r.domain r.at_ns r.dur_ns
    pp_stage r.event

let pp_timeline ppf (pkt, recs) =
  Fmt.pf ppf "pkt %d:@." pkt;
  List.iter
    (fun r ->
      Fmt.pf ppf "  [domain%d t=%-10d +%-8d] %a@." r.domain r.at_ns r.dur_ns
        pp_stage r.event)
    recs

let record_to_json r =
  Printf.sprintf
    "{\"pkt\": %d, \"domain\": %d, \"at_ns\": %d, \"dur_ns\": %d, \"stage\": \
     \"%s\", \"detail\": \"%s\"}"
    r.pkt r.domain r.at_ns r.dur_ns (stage_name r.event)
    (stage_detail r.event)

let records_to_json recs =
  "[" ^ String.concat ", " (List.map record_to_json recs) ^ "]"

let to_json (t : t) =
  Printf.sprintf
    "{\n\
    \  \"seed\": %d,\n\
    \  \"rate\": %d,\n\
    \  \"seen\": %d,\n\
    \  \"sampled\": %d,\n\
    \  \"dropped\": %d,\n\
    \  \"records\": %s\n\
     }\n"
    t.seed t.rate t.seen t.sampled (dropped t)
    (records_to_json (records t))
