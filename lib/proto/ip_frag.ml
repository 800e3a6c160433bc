(* The IP datagram layer every stack shares: input classification,
   output with fragmentation, and reassembly.  The video experiment
   (Figure 6) sends 12.5 KB UDP frames, which must be fragmented to the
   device MTU; the receive side reassembles before the UDP layer sees the
   datagram.

   Fragmentation is zero-copy: each fragment is an [Mbuf.sub] sub-chain
   sharing the datagram's buffers, so splitting a 12.5 KB datagram moves
   no payload bytes at all (headers are later prepended into fresh
   per-fragment segments because the shared payload store is not
   exclusively owned).  Reassembly holds (offset, view) chunks and blits
   each byte exactly once into a fresh mbuf when the datagram completes —
   the one legitimate copy on this path. *)

(* Split a datagram into (offset-in-8-byte-units, more, sub-chain)
   fragments that each fit in [mtu] together with the IP header.  The
   caller keeps ownership of [payload]; fragments hold their own
   references to its buffers. *)
let max_data mtu =
  if mtu <= Ipv4.header_len + 8 then invalid_arg "Ip_frag.fragment: mtu too small";
  (mtu - Ipv4.header_len) / 8 * 8

let fragment ~mtu (payload : 'p Mbuf.t) : (int * bool * 'p Mbuf.t) list =
  let max_data = max_data mtu in
  let len = Mbuf.length payload in
  if len <= max_data then [ (0, false, Mbuf.sub payload ~off:0 ~len) ]
  else begin
    let rec go off acc =
      if off >= len then List.rev acc
      else begin
        let n = min max_data (len - off) in
        let more = off + n < len in
        go (off + n) ((off / 8, more, Mbuf.sub payload ~off ~len:n) :: acc)
      end
    in
    go 0 []
  end

(* Reassembly contexts are keyed by (src, dst, proto, id). *)
type key = { src : Ipaddr.t; dst : Ipaddr.t; proto : int; id : int }

type ctx = {
  mutable chunks : (int * View.ro View.t) list; (* byte offset, payload *)
  mutable total : int option;           (* known once the last fragment arrives *)
  mutable received : int;
  deadline : Sim.Stime.t;
}

type t = {
  pending : (key, ctx) Hashtbl.t;
  timeout : Sim.Stime.t;
  mutable timeouts : int;
  mutable reassembled : int;
  mutable next_id : int;
}

let create ?(timeout = Sim.Stime.s 30) () =
  {
    pending = Hashtbl.create 16;
    timeout;
    timeouts = 0;
    reassembled = 0;
    next_id = 1;
  }

let pending_count t = Hashtbl.length t.pending
let reassembled_count t = t.reassembled
let timeout_count t = t.timeouts

let expire t ~now =
  let stale =
    Hashtbl.fold
      (fun k ctx acc -> if Sim.Stime.compare now ctx.deadline > 0 then k :: acc else acc)
      t.pending []
  in
  List.iter
    (fun k ->
      Hashtbl.remove t.pending k;
      t.timeouts <- t.timeouts + 1)
    stale;
  List.length stale

(* The earliest deadline among pending reassemblies — what a periodic
   expirer should arm its next one-shot timer at.  [None] when nothing
   is pending, so the expirer can go quiet instead of ticking forever
   (a perpetual timer would keep the event-driven engine from ever
   draining). *)
let next_deadline t =
  Hashtbl.fold
    (fun _ ctx acc ->
      match acc with
      | None -> Some ctx.deadline
      | Some d ->
          if Sim.Stime.compare ctx.deadline d < 0 then Some ctx.deadline
          else acc)
    t.pending None

(* Assemble completed chunks into a fresh contiguous datagram: each
   payload byte is copied exactly once, here. *)
let assemble total chunks =
  let m = Mbuf.alloc total in
  let dst = Mbuf.view m in
  List.iter
    (fun (o, v) ->
      View.blit ~src:v ~dst ~src_off:0 ~dst_off:o ~len:(View.length v))
    chunks;
  m

(* Whether a fragment covering [off, end_) clashes with the held chunks:
   it repeats an offset, overlaps one, or — being the last — ends before
   one does. *)
let rec conflicts ~off ~end_ ~last = function
  | [] -> false
  | (o, v) :: rest ->
      let o_end = o + View.length v in
      o = off
      || (o < end_ && off < o_end)
      || (last && o_end > end_)
      || conflicts ~off ~end_ ~last rest

(* Feed one fragment's payload; returns the reassembled datagram when
   complete.  The chunk views must stay valid until then (they reference
   the arriving frames' buffers, which the receive path keeps alive). *)
let input t ~now (h : Ipv4.header) (payload : _ View.t) :
    Mbuf.rw Mbuf.t option =
  let payload = View.ro payload in
  if (not h.more_fragments) && h.frag_offset = 0 then
    Some (assemble (View.length payload) [ (0, payload) ])
  else begin
    ignore (expire t ~now : int);
    let key = { src = h.src; dst = h.dst; proto = h.proto; id = h.id } in
    let ctx =
      match Hashtbl.find_opt t.pending key with
      | Some c -> c
      | None ->
          let c =
            {
              chunks = [];
              total = None;
              received = 0;
              deadline = Sim.Stime.add now t.timeout;
            }
          in
          Hashtbl.replace t.pending key c;
          c
    in
    let off = h.frag_offset * 8 in
    let end_ = off + View.length payload in
    let last = not h.more_fragments in
    (* Only disjoint chunks inside [0, total) are held, so [received]
       reaching [total] means every byte is covered; a duplicate or a
       clashing fragment is dropped. *)
    let past_end =
      match ctx.total with Some total -> end_ > total | None -> false
    in
    if not (past_end || conflicts ~off ~end_ ~last ctx.chunks) then begin
      ctx.chunks <- (off, payload) :: ctx.chunks;
      ctx.received <- ctx.received + View.length payload;
      if last then ctx.total <- Some end_
    end;
    match ctx.total with
    | Some total when ctx.received >= total ->
        Hashtbl.remove t.pending key;
        t.reassembled <- t.reassembled + 1;
        Some (assemble total ctx.chunks)
    | _ -> None
  end

(* ---- the datagram layer ---------------------------------------------- *)

type verdict =
  | Malformed
  | Not_ours
  | Whole of Ipv4.header
  | Held
  | Reassembled of Ipv4.header * Mbuf.rw Mbuf.t

(* Validate before decoding, so a malformed frame costs no allocation;
   a whole datagram allocates only its header and the [Whole] block. *)
let receive t ~now ~host v =
  if not (Ipv4.valid v) then Malformed
  else
    let h = Ipv4.decode v in
    if not (Ipv4.for_host ~host h.dst) then Not_ours
    else if (not h.more_fragments) && h.frag_offset = 0 then Whole h
    else
      match input t ~now h (Ipv4.payload v h) with
      | None -> Held
      | Some datagram ->
          let total_len = Ipv4.header_len + Mbuf.length datagram in
          Reassembled
            ( { h with total_len; more_fragments = false; frag_offset = 0 },
              datagram )

let packet_count ~mtu len =
  if len + Ipv4.header_len <= mtu then 1
  else
    let max_data = max_data mtu in
    (len + max_data - 1) / max_data

(* One packet's header: [Ipv4.make] without boxing its optional
   arguments, which would add words to every send. *)
let header ~id ~more ~off8 ~proto ~src ~dst payload_len =
  {
    Ipv4.tos = 0;
    total_len = Ipv4.header_len + payload_len;
    id;
    dont_fragment = false;
    more_fragments = more;
    frag_offset = off8;
    ttl = Ipv4.default_ttl;
    proto;
    src;
    dst;
  }

let output t ~mtu ~proto ~src ~dst payload emit =
  let id = t.next_id in
  t.next_id <- (id + 1) land 0xffff;
  let len = Mbuf.length payload in
  if len + Ipv4.header_len <= mtu then begin
    Ipv4.encapsulate payload
      (header ~id ~more:false ~off8:0 ~proto ~src ~dst len);
    emit payload
  end
  else
    (* zero-copy: fragments are sub-chains sharing the payload's buffers;
       only the per-fragment headers are fresh bytes *)
    List.iter
      (fun (off8, more, frag) ->
        Ipv4.encapsulate frag
          (header ~id ~more ~off8 ~proto ~src ~dst (Mbuf.length frag));
        emit frag)
      (fragment ~mtu payload)
