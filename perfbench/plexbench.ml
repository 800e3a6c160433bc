(* Plexus benchmark: one workload per process.

   Usage: plexbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Every workload is driven only through public functions of the
   libraries.  A run has three phases:

   - set-up: build the world, generate the seeded plan, warm up.  Timed
     several times (fresh worlds) and reported as the median [setup_s];
     the first world built is the one measured.
   - exact round: a fixed amount of work after warm-up.  The simulated
     metrics and [alloc_words_per_op] come from it alone, so they depend
     only on the seed, never on how fast the host is.
   - timed window: repeat the workload's step until [--seconds] of host
     time have passed; the host metrics come from it.

   With [--trace 1] the window is split into alternating untraced and
   traced slices (layer stamps installed), and the per-layer metrics are
   printed instead of the end-to-end ones.  The last stdout line is the
   JSON result. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- statistics ------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. ((r -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of_list l) 50.

(* Host latency samples, kept outside the OCaml heap so the buffer does
   not show in [heap_peak_mb].  When full, every other sample is dropped
   and the sampling stride doubles: the kept set stays an even spread of
   the whole window. *)
module Samples = struct
  open Bigarray

  type t = {
    buf : (float, float64_elt, c_layout) Array1.t;
    mutable n : int;
    mutable stride : int;
    mutable tick : int;
  }

  let create ?(cap = 1 lsl 18) () =
    { buf = Array1.create float64 c_layout cap; n = 0; stride = 1; tick = 0 }

  let add t x =
    let cap = Array1.dim t.buf in
    t.tick <- t.tick + 1;
    if t.tick >= t.stride then begin
      t.tick <- 0;
      if t.n = cap then begin
        for i = 0 to (cap / 2) - 1 do
          t.buf.{i} <- t.buf.{(2 * i) + 1}
        done;
        t.n <- cap / 2;
        t.stride <- t.stride * 2
      end;
      t.buf.{t.n} <- x;
      t.n <- t.n + 1
    end

  (* Move [t]'s samples into [into], each multiplied by [scale]. *)
  let drain t ~into ~scale =
    for i = 0 to t.n - 1 do
      add into (t.buf.{i} *. scale)
    done;
    t.n <- 0;
    t.stride <- 1;
    t.tick <- 0

  let sorted t =
    let a = Array.init t.n (fun i -> t.buf.{i}) in
    Array.sort compare a;
    a
end

(* ---- host-speed reference ---------------------------------------------- *)

(* The host is shared: its speed for this code swings by up to 1.8x over
   seconds to minutes, with the same binary and inputs.  Host times are
   therefore reported at a fixed reference speed.  A short reference
   kernel runs between 100 ms slices of the timed window; each slice's
   host time is multiplied by [nominal_ns] over the kernel's time around
   that slice.  The kernel is allocation-free and touches no Plexus
   code, so a change to Plexus cannot move it, and the collector never
   runs inside it.  Its mix (integer-keyed hash-table lookups, string
   hashing, streaming writes over 2 MB) was chosen because its time
   followed the datapath's across the host's slow and fast phases more
   closely than pure arithmetic or pointer chasing did. *)
module Calib = struct
  (* the kernel's time on an undisturbed core of the development host
     (x86-64 at 2.1 GHz) *)
  let nominal_ns = 3_000_000.
  let slice_ns = 100_000_000
  let table =
    let h = Hashtbl.create 4096 in
    for i = 0 to 4095 do
      Hashtbl.replace h i ()
    done;
    h

  let strings = Array.init 64 (fun i -> String.make (20 + i) 'x')
  let stream = Array.make (1 lsl 18) 0

  let kernel_ns () =
    let t = now_ns () in
    let acc = ref 0 in
    for i = 0 to 39_999 do
      if Hashtbl.mem table ((i * 7919) land 8191) then incr acc
    done;
    for i = 0 to 39_999 do
      acc := !acc + Hashtbl.hash (Array.unsafe_get strings (i land 63))
    done;
    for r = 1 to 2 do
      for j = 0 to (1 lsl 18) - 1 do
        Array.unsafe_set stream j (j + r + !acc)
      done
    done;
    ignore (Sys.opaque_identity !acc);
    now_ns () - t

  let scale ~before ~after = nominal_ns /. (float_of_int (before + after) /. 2.)

  (* [f ()] and the scale factor for the time it took *)
  let scaled f =
    let before = kernel_ns () in
    let r = f () in
    let after = kernel_ns () in
    (r, scale ~before ~after)
end

(* ---- layer stamps (traced run only) ---------------------------------- *)

(* The traced run partitions host time into segments.  A segment starts
   at a stamp and is charged to the layer the stamp names until the next
   stamp.  Stamps come from the benchmark's own calls (send, handler
   entry and exit, engine run) and from never-accepting probe guards on
   the ether/ip/udp receive events: a guard runs when its event is
   demultiplexed, so the time between the ether stamp and the ip stamp
   is the ether demux plus the IP manager's work, and so on.  Minor-heap
   words are partitioned the same way. *)
module Seg = struct
  type layer =
    | Bench | Tx | Netsim | Ip | Udp | Dispatch | Handler | Farm

  let all = [| Bench; Tx; Netsim; Ip; Udp; Dispatch; Handler; Farm |]

  let name = function
    | Bench -> "bench"
    | Tx -> "tx"
    | Netsim -> "netsim"
    | Ip -> "ip"
    | Udp -> "udp"
    | Dispatch -> "dispatch"
    | Handler -> "handler"
    | Farm -> "farm"

  let idx = function
    | Bench -> 0 | Tx -> 1 | Netsim -> 2 | Ip -> 3 | Udp -> 4 | Dispatch -> 5
    | Handler -> 6 | Farm -> 7

  let n = Array.length all
  let on = ref false
  let ns = Array.make n 0
  let words = Float.Array.make n 0.
  let cur = ref Bench
  let t0 = ref 0
  let w0 = Float.Array.make 1 0.
  let op = ref 0

  (* The first [span_cap] segments are kept as spans (op, layer, start,
     end) and written out when the run ends. *)
  let span_cap = 1 lsl 14
  let spans = Bigarray.(Array2.create int c_layout span_cap 4)
  let n_spans = ref 0

  let reset () =
    Array.fill ns 0 n 0;
    Float.Array.fill words 0 n 0.;
    n_spans := 0

  let enter l =
    if !on then begin
      let t = now_ns () and w = Gc.minor_words () in
      let c = idx !cur in
      ns.(c) <- ns.(c) + (t - !t0);
      Float.Array.set words c (Float.Array.get words c +. (w -. Float.Array.get w0 0));
      if !n_spans < span_cap then begin
        let s = !n_spans in
        spans.{s, 0} <- !op;
        spans.{s, 1} <- c;
        spans.{s, 2} <- !t0;
        spans.{s, 3} <- t;
        n_spans := s + 1
      end;
      cur := l;
      t0 := t;
      Float.Array.set w0 0 w
    end

  (* Run [f] as layer [l], then return to the layer that was current. *)
  let within l f =
    if !on then begin
      let back = !cur in
      enter l;
      f ();
      enter back
    end
    else f ()

  let start () =
    on := true;
    cur := Bench;
    t0 := now_ns ();
    Float.Array.set w0 0 (Gc.minor_words ())

  let stop () =
    enter Bench;
    on := false

  let write_spans path =
    let oc = open_out path in
    for s = 0 to !n_spans - 1 do
      Printf.fprintf oc "{\"op\": %d, \"layer\": \"%s\", \"start_ns\": %d, \"end_ns\": %d}\n"
        spans.{s, 0} (name all.(spans.{s, 1})) spans.{s, 2} spans.{s, 3}
    done;
    close_out oc
end

(* A never-accepting probe guard on a receive event: stamps the layer
   boundary and lets the other handlers run as before. *)
let install_probe ev layer ~sample =
  Spin.Dispatcher.install ev
    ~guard:(fun _ ->
      Seg.enter layer;
      sample ();
      false)
    ~label:("probe." ^ Seg.name layer) ~cost:Sim.Stime.zero
    (fun _ -> ())

(* ---- what a workload hands the harness ------------------------------- *)

type exact = {
  ex_ops : int;
  ex_sim_us : float;  (* simulated time the round took *)
  ex_lat_us : float array;  (* simulated per-op (or per-burst) latency *)
  ex_bytes : int;  (* payload bytes delivered to applications *)
  ex_words : float;  (* minor-heap words allocated by the system *)
  ex_digest : string;  (* digest of the round's inputs *)
}

type counts = (string * float) list

type replay = {
  encode_ns : float;  (* per op *)
  decode_ns : float;
  cksum_ns : float;
  reassembly_ns : float;  (* per reassembled datagram *)
  emit_ns : float;  (* per span *)
}

let no_replay =
  { encode_ns = 0.; decode_ns = 0.; cksum_ns = 0.; reassembly_ns = 0.; emit_ns = 0. }

type world = {
  exact : unit -> exact;
  step : Samples.t -> int * int;
      (* one timed unit: adds its host latency sample(s), returns
         (ops attempted, host ns spent) *)
  tally : unit -> int * int;  (* (attempted, failed) since set-up *)
  counts : unit -> counts;  (* cumulative counters for the per-layer diff *)
  probes : unit -> unit -> unit;  (* install the layer stamps; returns the uninstaller *)
  replay : unit -> replay;
  peaks : unit -> counts;  (* peak gauges observed while stamped *)
  conn_setup_ns : float;  (* host ns per parked connection, unscaled *)
}

let time_ns f =
  let t = now_ns () in
  let r = f () in
  (r, now_ns () - t)

let bind_exn udp ~owner ~port =
  match Plexus.Udp_mgr.bind udp ~owner ~port with
  | Ok ep -> ep
  | Error _ -> failwith (Printf.sprintf "bind %d failed" port)

let kernel_of stack = Netsim.Host.kernel (Plexus.Stack.host stack)
let disp_of stack = Plexus.Graph.dispatcher (Plexus.Stack.graph stack)
let dev_of stack = Plexus.Ether_mgr.dev (Plexus.Stack.ether stack)

let residual_evals d =
  List.fold_left
    (fun acc ei ->
      match ei.Spin.Dispatcher.ei_tree with
      | Some ti -> acc + ti.Spin.Dispatcher.ti_residual_evals
      | None -> acc)
    0 (Spin.Dispatcher.dump d)

(* Counters shared by the two UDP workloads, summed over their stacks. *)
let stack_counts ~engine ~probe_evals ~server stacks =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stacks in
  let dc s = Netsim.Dev.counters (dev_of s) in
  let fi = float_of_int in
  [
    ("raises", fi (sum (fun s -> Spin.Dispatcher.raises (disp_of s))));
    ("guard_evals",
      fi (sum (fun s -> Spin.Dispatcher.guard_evals (disp_of s)) - !probe_evals));
    ("residual_evals", fi (sum (fun s -> residual_evals (disp_of s)) - !probe_evals));
    ("frames", fi (sum (fun s -> (dc s).Netsim.Dev.rx_packets)));
    ("queue_drops",
      fi (sum (fun s ->
          let c = dc s in
          c.Netsim.Dev.tx_drops + c.Netsim.Dev.rx_drops + c.Netsim.Dev.wire_drops)));
    ("plexus_drops",
      fi (sum (fun s ->
          let u = Plexus.Udp_mgr.counters (Plexus.Stack.udp s) in
          let i = Plexus.Ip_mgr.counters (Plexus.Stack.ip s) in
          u.Plexus.Udp_mgr.no_port + u.Plexus.Udp_mgr.bad_checksum
          + i.Plexus.Ip_mgr.bad_checksum)));
    ("events", fi (Sim.Engine.events_run engine));
    ("sim_ns", fi (Sim.Stime.to_ns (Sim.Engine.now engine)));
    ("busy_ns",
      fi (Sim.Stime.to_ns (Sim.Cpu.busy_time (Netsim.Host.cpu (Plexus.Stack.host server)))));
    ("spans",
      (match Observe.Trace.sink (Spin.Kernel.trace (kernel_of server)) with
      | Observe.Trace.Ring r ->
          fi (Observe.Trace.Ring.length r + Observe.Trace.Ring.dropped r)
      | _ -> 0.));
    ("flight",
      (let f = Spin.Kernel.flight (kernel_of server) in
       fi (Observe.Flight.length f + Observe.Flight.dropped f)));
  ]

(* Peak gauges read at every stamp: engine events pending and the
   server CPU's run queue.  Returns the sampler and the reader. *)
let peak_gauges engine server =
  let cpu = Netsim.Host.cpu (Plexus.Stack.host server) in
  let pending = ref 0 and backlog = ref 0 in
  let sample () =
    pending := max !pending (Sim.Engine.pending engine);
    backlog := max !backlog (Sim.Cpu.queue_depth cpu)
  in
  let peaks () =
    [ ("timers_pending_peak", float_of_int !pending);
      ("rx_backlog_peak", float_of_int !backlog) ]
  in
  (sample, peaks)

(* Probes on both directions' ether/ip/udp receive events; [sample]
   reads the peak gauges at every stamp. *)
let install_stack_probes ~probe_evals ~sample stacks =
  let count () =
    incr probe_evals;
    sample ()
  in
  let uninstall =
    List.concat_map
      (fun s ->
        List.map
          (fun (node, layer) -> install_probe (Plexus.Graph.recv_event node) layer ~sample:count)
          [
            (Plexus.Ether_mgr.node (Plexus.Stack.ether s), Seg.Ip);
            (Plexus.Ip_mgr.node (Plexus.Stack.ip s), Seg.Udp);
            (Plexus.Udp_mgr.node (Plexus.Stack.udp s), Seg.Dispatch);
          ])
      stacks
  in
  fun () -> List.iter (fun u -> u ()) uninstall

(* ---- replays of captured frames through the proto functions ---------- *)

let reps = 50

(* Median over [reps] of a timed pass, in ns. *)
let timed_median f =
  median (List.init reps (fun _ -> float_of_int (snd (time_ns f))))

type frame_info = { bytes : string; ip : Proto.Ipv4.header option }

(* offset of the transport header in an option-less IPv4 frame *)
let l4_off = Proto.Ether.header_len + Proto.Ipv4.header_len

let frame_info bytes =
  let v = View.of_string bytes in
  let ip =
    match Proto.Ether.parse v with
    | Some e when e.Proto.Ether.etype = Proto.Ether.etype_ip ->
        Proto.Ipv4.parse (View.shift v Proto.Ether.header_len)
    | _ -> None
  in
  { bytes; ip }

let is_whole_udp fi =
  match fi.ip with
  | Some h ->
      h.Proto.Ipv4.proto = Proto.Ipv4.proto_udp
      && (not h.Proto.Ipv4.more_fragments) && h.Proto.Ipv4.frag_offset = 0
  | None -> false

(* Decode, encode and checksum passes over the frames a window of
   [ops] operations carried; each result is per op. *)
let replay_frames ~ops frames =
  let infos = List.map frame_info frames in
  let views = List.map (fun fi -> (fi, View.of_string fi.bytes)) infos in
  let per_op x = x /. float_of_int (max 1 ops) in
  let decode () =
    List.iter
      (fun (fi, v) ->
        ignore (Sys.opaque_identity (Proto.Ether.parse v));
        if fi.ip <> None then begin
          let ipv = View.shift v Proto.Ether.header_len in
          match Proto.Ipv4.parse ipv with
          | Some h when h.Proto.Ipv4.proto = Proto.Ipv4.proto_udp
                        && h.Proto.Ipv4.frag_offset = 0 ->
              ignore (Sys.opaque_identity (Proto.Udp.parse (View.shift v l4_off)))
          | Some h when h.Proto.Ipv4.proto = Proto.Ipv4.proto_tcp ->
              ignore (Sys.opaque_identity (Proto.Tcp_wire.parse (View.shift v l4_off)))
          | _ -> ()
        end)
      views
  in
  let udp = List.filter is_whole_udp infos in
  let cksum () =
    List.iter
      (fun fi ->
        match fi.ip with
        | Some h ->
            let v = View.of_string fi.bytes in
            ignore (Sys.opaque_identity
                      (Proto.Ipv4.checksum_valid (View.shift v Proto.Ether.header_len)));
            ignore (Sys.opaque_identity
                      (Proto.Udp.valid ~src:h.Proto.Ipv4.src ~dst:h.Proto.Ipv4.dst
                         (View.sub v ~off:l4_off
                            ~len:(h.Proto.Ipv4.total_len - Proto.Ipv4.header_len))))
        | None -> ())
      udp
  in
  (* Encoding rebuilds each whole UDP frame's headers in front of a
     payload of the same length; the payload buffers are allocated
     before the clock starts. *)
  let encode_ns =
    median
      (List.init reps (fun _ ->
           let bufs =
             List.map
               (fun fi ->
                 let h = Option.get fi.ip in
                 (h, Mbuf.alloc (h.Proto.Ipv4.total_len - Proto.Ipv4.header_len - Proto.Udp.header_len)))
               udp
           in
           float_of_int
             (snd
                (time_ns (fun () ->
                     List.iter
                       (fun (h, m) ->
                         Proto.Udp.encapsulate m ~src:h.Proto.Ipv4.src ~dst:h.Proto.Ipv4.dst
                           ~src_port:5001 ~dst_port:7;
                         Proto.Ipv4.encapsulate m
                           (Proto.Ipv4.make ~id:h.Proto.Ipv4.id ~proto:Proto.Ipv4.proto_udp
                              ~src:h.Proto.Ipv4.src ~dst:h.Proto.Ipv4.dst
                              ~payload_len:(Mbuf.length m) ());
                         Proto.Ether.encapsulate m
                           { Proto.Ether.dst = Proto.Ether.Mac.broadcast;
                             src = Proto.Ether.Mac.broadcast;
                             etype = Proto.Ether.etype_ip })
                       bufs)))))
  in
  {
    no_replay with
    decode_ns = per_op (timed_median decode);
    encode_ns = per_op encode_ns;
    cksum_ns = per_op (timed_median cksum);
  }

(* Capture the frames the next [ops] operations carry, with a
   temporary guard on each stack's ether event. *)
let capture stacks ~run_ops ~ops =
  let acc = ref [] in
  let uninstall =
    List.map
      (fun s ->
        Spin.Dispatcher.install
          (Plexus.Graph.recv_event (Plexus.Ether_mgr.node (Plexus.Stack.ether s)))
          ~guard:(fun ctx ->
            acc := Mbuf.to_string ctx.Plexus.Pctx.pkt :: !acc;
            false)
          ~label:"capture" ~cost:Sim.Stime.zero (fun _ -> ()))
      stacks
  in
  let done_ops = run_ops ops in
  List.iter (fun u -> u ()) uninstall;
  (List.rev !acc, done_ops)

(* ---- workload: udp_echo_64 ------------------------------------------ *)

(* Closed loop, one 64 B datagram in flight: the client sends, the
   server's handler echoes it, the client checks the echoed bytes.  The
   seed picks the payload bytes and a per-frame wire jitter in
   [0, 10 us) on both links, so simulated latency is a function of the
   seed alone. *)
let udp_echo_64 ~seed =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let engine = p.Experiments.Common.engine in
  let a = p.Experiments.Common.a and b = p.Experiments.Common.b in
  List.iteri
    (fun i s ->
      let f = Netsim.Faults.create ~rng:(Sim.Rng.stream ~seed ~index:i) () in
      Netsim.Faults.set_jitter f ~max_delay:(Sim.Stime.us 10) 1.0;
      Netsim.Dev.set_faults (dev_of s) f)
    [ a; b ];
  let rng = Sim.Rng.create seed in
  let payloads =
    Array.init 256 (fun _ -> String.init 64 (fun _ -> Char.chr (Sim.Rng.int rng 256)))
  in
  let udp_a = Plexus.Stack.udp a and udp_b = Plexus.Stack.udp b in
  let server = bind_exn udp_b ~owner:"echo-server" ~port:7 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
        Seg.enter Seg.Handler;
        let data = View.to_string (Plexus.Pctx.view ctx) in
        let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
        Seg.within Seg.Tx (fun () ->
            Plexus.Udp_mgr.send udp_b server ~dst:(src, ctx.Plexus.Pctx.src_port) data);
        Seg.enter Seg.Netsim)
  in
  let client = bind_exn udp_a ~owner:"echo-client" ~port:5001 in
  let expect = ref "" and replied = ref false and ok = ref false in
  let replied_at = ref Sim.Stime.zero in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_a client (fun ctx ->
        Seg.enter Seg.Handler;
        replied := true;
        replied_at := Sim.Engine.now engine;
        ok := String.equal (View.to_string (Plexus.Pctx.view ctx)) !expect;
        Seg.enter Seg.Netsim)
  in
  let attempted = ref 0 and failed = ref 0 and next = ref 0 in
  (* one round trip; returns its simulated RTT in ns *)
  let op () =
    let payload = payloads.(!next land 255) in
    incr next;
    expect := payload;
    replied := false;
    ok := false;
    let t0 = Sim.Engine.now engine in
    Seg.enter Seg.Tx;
    Plexus.Udp_mgr.send udp_a client ~dst:(Experiments.Common.ip_b, 7) payload;
    Seg.enter Seg.Netsim;
    Sim.Engine.run engine;
    Seg.enter Seg.Bench;
    incr attempted;
    if not (!replied && !ok) then incr failed;
    Sim.Stime.to_ns !replied_at - Sim.Stime.to_ns t0
  in
  for _ = 1 to 2000 do
    ignore (op ())
  done;
  attempted := 0;
  failed := 0;
  let exact_ops = 5000 in
  let exact () =
    let lat = Array.make exact_ops 0 in
    let t0 = Sim.Engine.now engine in
    let w0 = Gc.minor_words () in
    for i = 0 to exact_ops - 1 do
      lat.(i) <- op ()
    done;
    let words = Gc.minor_words () -. w0 in
    let sim_ns = Sim.Stime.to_ns (Sim.Engine.now engine) - Sim.Stime.to_ns t0 in
    {
      ex_ops = exact_ops;
      ex_sim_us = float_of_int sim_ns /. 1000.;
      ex_lat_us = Array.map (fun ns -> float_of_int ns /. 1000.) lat;
      ex_bytes = 2 * 64 * exact_ops;
      ex_words = words;
      ex_digest = Digest.to_hex (Digest.string (String.concat "" (Array.to_list payloads)));
    }
  in
  let step samples =
    let t = now_ns () in
    ignore (op ());
    let dt = now_ns () - t in
    Samples.add samples (float_of_int dt /. 1000.);
    (1, dt)
  in
  let probe_evals = ref 0 in
  let sample, peaks = peak_gauges engine b in
  let run_ops n = for _ = 1 to n do ignore (op ()) done; n in
  {
    exact;
    step;
    tally = (fun () -> (!attempted, !failed));
    counts = (fun () -> stack_counts ~engine ~probe_evals ~server:b [ a; b ]);
    probes = (fun () -> install_stack_probes ~probe_evals ~sample [ a; b ]);
    replay =
      (fun () ->
        let frames, ops = capture [ a; b ] ~run_ops ~ops:64 in
        replay_frames ~ops frames);
    peaks;
    conn_setup_ns = 0.;
  }

(* ---- workload: udp_ext_rx -------------------------------------------- *)

let ext_flows = 1024
let ext_datagrams = 8192
let ext_server_ports = 16
let ext_analyzers = 64
let ext_burst = 32

type ext_frame = {
  wire : string;
  ends : bool;  (* last frame of a UDP datagram *)
  payload : int;  (* UDP payload bytes of the datagram it ends *)
  mid_train : bool;  (* an IP fragment with more to follow *)
}

(* The seeded plan: [ext_datagrams] datagrams over [ext_flows] flows,
   payloads uniform in 64..1472 B, one in 50 a 4 KB datagram sent as IP
   fragments, and an ARP request from the client after every 64
   frames (never inside a fragment train). *)
let ext_plan ~seed ~src_mac ~dst_mac =
  let rng = Sim.Rng.create seed in
  let src = Experiments.Common.ip_a and dst = Experiments.Common.ip_b in
  let ether m etype = Proto.Ether.encapsulate m { Proto.Ether.dst = dst_mac; src = src_mac; etype } in
  let frames = ref [] and since_arp = ref 0 in
  let push f =
    frames := f :: !frames;
    incr since_arp;
    if !since_arp >= 64 && not f.mid_train then begin
      since_arp := 0;
      let m =
        Proto.Arp.to_packet
          (Proto.Arp.request ~sender_mac:src_mac ~sender_ip:src ~target_ip:dst)
      in
      Proto.Ether.encapsulate m
        { Proto.Ether.dst = Proto.Ether.Mac.broadcast; src = src_mac;
          etype = Proto.Ether.etype_arp };
      frames := { wire = Mbuf.to_string m; ends = false; payload = 0; mid_train = false } :: !frames
    end
  in
  for id = 1 to ext_datagrams do
    let flow = Sim.Rng.int rng ext_flows in
    let len = if Sim.Rng.int rng 50 = 0 then 4096 else 64 + Sim.Rng.int rng 1409 in
    let m = Mbuf.of_string (String.init len (fun _ -> Char.chr (Sim.Rng.int rng 256))) in
    Proto.Udp.encapsulate ~checksum:true m ~src ~dst ~src_port:(20000 + flow)
      ~dst_port:(9000 + (flow mod ext_server_ports));
    let ip ?(more = false) ?(off = 0) m =
      Proto.Ipv4.encapsulate m
        (Proto.Ipv4.make ~id ~more_fragments:more ~frag_offset:off
           ~proto:Proto.Ipv4.proto_udp ~src ~dst ~payload_len:(Mbuf.length m) ());
      ether m Proto.Ether.etype_ip;
      Mbuf.to_string m
    in
    if len + 28 <= 1500 then push { wire = ip m; ends = true; payload = len; mid_train = false }
    else begin
      let frags = Proto.Ip_frag.fragment ~mtu:1500 m in
      List.iter
        (fun (off, more, chunk) ->
          let c = Mbuf.of_string (Mbuf.to_string chunk) in
          push { wire = ip ~more ~off c; ends = not more; payload = (if more then 0 else len);
                 mid_train = more })
        frags
    end
  done;
  Array.of_list (List.rev !frames)

(* Frames of the plan injected at the server device in bursts of 32 via
   [Dev.deliver_batch]; the next burst goes when the engine is idle.
   The server carries the paper's extension trio (ether tap, ip
   firewall, byte accounting), 64 analyzers with opaque guards on the
   udp event, the ring trace sink and 1/64 flight sampling. *)
let udp_ext_rx ~seed =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let engine = p.Experiments.Common.engine in
  let a = p.Experiments.Common.a and b = p.Experiments.Common.b in
  let kernel = kernel_of b in
  let ring = Observe.Trace.Ring.create ~capacity:4096 () in
  Observe.Trace.set_sink (Spin.Kernel.trace kernel) (Observe.Trace.Ring ring);
  Observe.Flight.set_rate (Spin.Kernel.flight kernel) 64;
  let ether_ev = Plexus.Graph.recv_event (Plexus.Ether_mgr.node (Plexus.Stack.ether b)) in
  let ip_ev = Plexus.Graph.recv_event (Plexus.Ip_mgr.node (Plexus.Stack.ip b)) in
  let udp_ev = Plexus.Graph.recv_event (Plexus.Udp_mgr.node (Plexus.Stack.udp b)) in
  let tap_frames = ref 0 and acct_bytes = ref 0 and analyzed = ref 0 in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ether_ev ~guard:(fun _ -> true) ~label:"tap"
      ~cost:(Sim.Stime.us 2) (fun _ -> incr tap_frames)
  in
  let is_udp ctx =
    match ctx.Plexus.Pctx.ip with
    | Some ip -> ip.Proto.Ipv4.proto = Proto.Ipv4.proto_udp
    | None -> false
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ip_ev ~guard:is_udp ~label:"firewall"
      ~cost:(Sim.Stime.us 2) (fun _ -> ())
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ip_ev ~guard:is_udp ~label:"acct" ~cost:(Sim.Stime.us 1)
      (fun ctx -> acct_bytes := !acct_bytes + Plexus.Pctx.payload_len ctx)
  in
  for i = 0 to ext_analyzers - 1 do
    let (_ : unit -> unit) =
      Spin.Dispatcher.install udp_ev
        ~guard:(fun ctx -> ctx.Plexus.Pctx.src_port land (ext_analyzers - 1) = i)
        ~label:(Printf.sprintf "analyzer%d" i) ~cost:(Sim.Stime.ns 500)
        (fun _ -> incr analyzed)
    in
    ()
  done;
  let udp_b = Plexus.Stack.udp b in
  let delivered = ref 0 and delivered_bytes = ref 0 in
  for port = 9000 to 9000 + ext_server_ports - 1 do
    let ep = bind_exn udp_b ~owner:"sink" ~port in
    let (_ : unit -> unit) =
      Plexus.Udp_mgr.install_recv udp_b ep (fun ctx ->
          Seg.enter Seg.Handler;
          incr delivered;
          delivered_bytes := !delivered_bytes + View.length (Plexus.Pctx.view ctx);
          Seg.enter Seg.Netsim)
    in
    ()
  done;
  let dev = dev_of b in
  let plan =
    ext_plan ~seed ~src_mac:(Netsim.Dev.mac (dev_of a)) ~dst_mac:(Netsim.Dev.mac dev)
  in
  let n_frames = Array.length plan in
  (* Burst boundaries: 32 frames, stretched so a fragment train never
     straddles two bursts (a half-delivered train would arm the 30 s
     reassembly timer and the engine would not go idle). *)
  let bounds =
    let acc = ref [] and start = ref 0 in
    for i = 0 to n_frames - 1 do
      if i + 1 - !start >= ext_burst && not plan.(i).mid_train then begin
        acc := (!start, i + 1 - !start) :: !acc;
        start := i + 1
      end
    done;
    if !start < n_frames then acc := (!start, n_frames - !start) :: !acc;
    Array.of_list (List.rev !acc)
  in
  let bursts_per_cycle = Array.length bounds in
  let pos = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let words = Float.Array.make 1 0. in
  (* One burst.  The mbufs are filled before the clock starts (the
     NIC's DMA); the timed part is the coalesced interrupt and the
     engine run to idle.  Every counter the burst should move is
     reconciled against the plan: a mismatch fails the burst's ops. *)
  let burst () =
    let first, len = bounds.(!pos) in
    pos := (!pos + 1) mod bursts_per_cycle;
    let mbufs = List.init len (fun i -> Mbuf.ro (Mbuf.of_string plan.(first + i).wire)) in
    let ops = ref 0 and bytes = ref 0 in
    for i = first to first + len - 1 do
      if plan.(i).ends then begin
        incr ops;
        bytes := !bytes + plan.(i).payload
      end
    done;
    let tap0 = !tap_frames and acct0 = !acct_bytes and an0 = !analyzed in
    let del0 = !delivered and db0 = !delivered_bytes in
    let s0 = Sim.Engine.now engine in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    Seg.enter Seg.Netsim;
    Netsim.Dev.deliver_batch dev mbufs;
    Sim.Engine.run engine;
    Seg.enter Seg.Bench;
    let dt = now_ns () - t0 in
    Float.Array.set words 0 (Float.Array.get words 0 +. (Gc.minor_words () -. w0));
    let sim_ns = Sim.Stime.to_ns (Sim.Engine.now engine) - Sim.Stime.to_ns s0 in
    let ok =
      !tap_frames - tap0 = len
      && !acct_bytes - acct0 = !bytes + (8 * !ops)
      && !analyzed - an0 = !ops
      && !delivered - del0 = !ops
      && !delivered_bytes - db0 = !bytes
    in
    attempted := !attempted + !ops;
    if not ok then failed := !failed + !ops;
    (!ops, !bytes, dt, sim_ns)
  in
  (* warm-up: one whole cycle of the plan *)
  for _ = 1 to bursts_per_cycle do
    ignore (burst ())
  done;
  attempted := 0;
  failed := 0;
  let exact () =
    Float.Array.set words 0 0.;
    let lat = Array.make bursts_per_cycle 0. in
    let ops = ref 0 and bytes = ref 0 and sim = ref 0 in
    for k = 0 to bursts_per_cycle - 1 do
      let o, by, _, s = burst () in
      ops := !ops + o;
      bytes := !bytes + by;
      sim := !sim + s;
      lat.(k) <- float_of_int s /. 1000.
    done;
    {
      ex_ops = !ops;
      ex_sim_us = float_of_int !sim /. 1000.;
      ex_lat_us = lat;
      ex_bytes = !bytes;
      ex_words = Float.Array.get words 0;
      ex_digest =
        Digest.to_hex (Digest.string (String.concat "" (Array.to_list (Array.map (fun f -> f.wire) plan))));
    }
  in
  let step samples =
    let ops, _, dt, _ = burst () in
    Samples.add samples (float_of_int dt /. 1000.);
    (ops, dt)
  in
  let probe_evals = ref 0 in
  let sample, peaks = peak_gauges engine b in
  let replay () =
    let frames, ops =
      capture [ b ] ~ops:256 ~run_ops:(fun n ->
          let ops = ref 0 in
          while !ops < n do
            let o, _, _, _ = burst () in
            ops := !ops + o
          done;
          !ops)
    in
    let r = replay_frames ~ops frames in
    (* reassembly: every fragment train of the plan through a fresh
       reassembly table *)
    let frags =
      List.filter_map
        (fun f ->
          let fi = frame_info f.wire in
          match fi.ip with
          | Some h when h.Proto.Ipv4.more_fragments || h.Proto.Ipv4.frag_offset > 0 ->
              let v = View.of_string f.wire in
              Some (h, View.sub v ~off:l4_off ~len:(h.Proto.Ipv4.total_len - Proto.Ipv4.header_len))
          | _ -> None)
        (Array.to_list plan)
    in
    let dgrams = ref 0 in
    let reassembly_ns =
      timed_median (fun () ->
          let t = Proto.Ip_frag.create () in
          dgrams := 0;
          List.iter
            (fun (h, v) ->
              match Proto.Ip_frag.input t ~now:Sim.Stime.zero h v with
              | Some _ -> incr dgrams
              | None -> ())
            frags)
    in
    let spans = Observe.Trace.Ring.to_list ring in
    let emit_ns =
      timed_median (fun () ->
          let tr = Observe.Trace.create
              ~sink:(Observe.Trace.Ring (Observe.Trace.Ring.create ~capacity:4096 ())) ()
          in
          List.iter (Observe.Trace.emit tr) spans)
    in
    {
      r with
      reassembly_ns = reassembly_ns /. float_of_int (max 1 !dgrams);
      emit_ns = emit_ns /. float_of_int (max 1 (List.length spans));
    }
  in
  {
    exact;
    step;
    tally = (fun () -> (!attempted, !failed));
    counts = (fun () -> stack_counts ~engine ~probe_evals ~server:b [ b ]);
    probes = (fun () -> install_stack_probes ~probe_evals ~sample [ b ]);
    replay;
    peaks;
    conn_setup_ns = 0.;
  }

(* ---- workload: tcp_farm_20k ------------------------------------------ *)

let farm_flows = 20_000
let farm_probes = 32
let farm_page = 1024

(* [Experiments.Farm.scale_setup] parks 20k idle established
   connections through 8 client chains behind in-kernel forwarders; one
   step is a round of 32 fresh HTTP GETs (handshake, request, 1 KB
   response, close) with Poisson think time.  The farm keeps its stacks
   private, so the traced run sees a round as one span and the counters
   come from the process-global packet registry. *)
let tcp_farm_20k ~seed =
  let (run, setup_ns) =
    time_ns (fun () ->
        Experiments.Farm.scale_setup ~clients:8 ~seed ~live_flows:farm_flows
          ~probes:farm_probes ())
  in
  let attempted = ref 0 and failed = ref 0 in
  let round () =
    let r = run () in
    let bytes =
      Float.to_int
        (Float.round (r.Experiments.Farm.probe_goodput_mbps *. r.Experiments.Farm.sim_elapsed_us /. 8.))
    in
    let ok =
      r.Experiments.Farm.established = farm_flows
      && r.Experiments.Farm.probe_errors = 0
      && bytes = farm_probes * farm_page
    in
    attempted := !attempted + farm_probes;
    if not ok then failed := !failed + farm_probes;
    (r, bytes)
  in
  for _ = 1 to 4 do
    ignore (round ())
  done;
  attempted := 0;
  failed := 0;
  let exact_rounds = 32 in
  let packets = ref 0 and rounds = ref 0 in
  let exact () =
    let w0 = Gc.minor_words () in
    let rs = List.init exact_rounds (fun _ -> round ()) in
    let words = Gc.minor_words () -. w0 in
    let p50s = List.map (fun (r, _) -> r.Experiments.Farm.probe_p50_us) rs in
    let p99s = List.map (fun (r, _) -> r.Experiments.Farm.probe_p99_us) rs in
    {
      ex_ops = exact_rounds * farm_probes;
      ex_sim_us = List.fold_left (fun acc (r, _) -> acc +. r.Experiments.Farm.sim_elapsed_us) 0. rs;
      (* a round reports its own p50 and p99; the exact round keeps the
         median of each across its rounds *)
      ex_lat_us = [| median p50s; median p99s |];
      ex_bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 rs;
      ex_words = words;
      (* the farm draws its schedule inside; the rounds' simulated
         durations stand for it *)
      ex_digest =
        Digest.to_hex
          (Digest.string
             (String.concat ","
                (List.map (fun (r, _) -> Printf.sprintf "%h" r.Experiments.Farm.sim_elapsed_us) rs)));
    }
  in
  let step samples =
    let t = now_ns () in
    Seg.enter Seg.Farm;
    let r, _ = round () in
    Seg.enter Seg.Bench;
    let dt = now_ns () - t in
    packets := !packets + r.Experiments.Farm.packets;
    incr rounds;
    Samples.add samples (float_of_int dt /. 1000. /. float_of_int farm_probes);
    (farm_probes, dt)
  in
  {
    exact;
    step;
    tally = (fun () -> (!attempted, !failed));
    counts =
      (fun () ->
        [ ("frames", float_of_int !packets); ("rounds", float_of_int !rounds) ]);
    probes = (fun () () -> ());
    replay = (fun () -> no_replay);
    peaks = (fun () -> []);
    conn_setup_ns = float_of_int setup_ns /. float_of_int farm_flows;
  }

(* ---- the harness ------------------------------------------------------ *)

let workloads =
  [
    ("udp_echo_64", (udp_echo_64, 15));
    ("udp_ext_rx", (udp_ext_rx, 7));
    ("tcp_farm_20k", (tcp_farm_20k, 4));
  ]

type gc_snap = { minor : int; major : int; promoted : float; minor_words : float }

let gc_snap () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
    promoted = s.Gc.promoted_words;
    minor_words = Gc.minor_words ();
  }

type window = {
  ops : int;
  busy_ns : int;
  scaled_ns : float;
  p50_sum : float;  (* sum over slices of the slice's median latency *)
  p50_slices : int;
}

(* Run steps until [seconds] of host time have passed, in slices with a
   reference-kernel reading between them.  Latency samples are added to
   [samples] scaled by their slice's factor.  The median is also taken
   per slice: the host's speed drifts between phases, and the mean of the
   slices' medians moves smoothly with the mix of phases in a window
   where the median of the pooled samples jumps between them. *)
let timed_window w ~seconds samples =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let pending = Samples.create ~cap:(1 lsl 16) () in
  let ops = ref 0 and busy = ref 0 and scaled = ref 0. in
  let p50_sum = ref 0. and p50_slices = ref 0 in
  let before = ref (Calib.kernel_ns ()) in
  while now_ns () < deadline do
    let slice_end = min deadline (now_ns () + Calib.slice_ns) in
    let s_busy = ref 0 in
    while now_ns () < slice_end do
      incr Seg.op;
      let o, dt = w.step pending in
      ops := !ops + o;
      s_busy := !s_busy + dt
    done;
    let after = Calib.kernel_ns () in
    let f = Calib.scale ~before:!before ~after in
    before := after;
    if pending.Samples.n > 0 then begin
      p50_sum := !p50_sum +. (percentile (Samples.sorted pending) 50. *. f);
      incr p50_slices
    end;
    Samples.drain pending ~into:samples ~scale:f;
    busy := !busy + !s_busy;
    scaled := !scaled +. (float_of_int !s_busy *. f)
  done;
  { ops = !ops; busy_ns = !busy; scaled_ns = !scaled; p50_sum = !p50_sum;
    p50_slices = !p50_slices }

let add_window a b =
  {
    ops = a.ops + b.ops;
    busy_ns = a.busy_ns + b.busy_ns;
    scaled_ns = a.scaled_ns +. b.scaled_ns;
    p50_sum = a.p50_sum +. b.p50_sum;
    p50_slices = a.p50_slices + b.p50_slices;
  }

let empty_window = { ops = 0; busy_ns = 0; scaled_ns = 0.; p50_sum = 0.; p50_slices = 0 }

(* the reference-speed factor of a window *)
let speed w = if w.busy_ns > 0 then w.scaled_ns /. float_of_int w.busy_ns else 1.

let ops_per_s w = float_of_int w.ops /. (Float.max 1. w.scaled_ns /. 1e9)
let raw_ops_per_s w = float_of_int w.ops /. (float_of_int (max 1 w.busy_ns) /. 1e9)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

let json_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %16.4f %s\n" name v unit) rows

let main ~workload ~seed ~seconds ~trace ~out_dir =
  let build, setup_reps =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S\n" workload;
        exit 2
  in
  (* A set-up's host time, at reference speed. *)
  let setup_time () =
    let (w, ns), f = Calib.scaled (fun () -> time_ns (fun () -> build ~seed)) in
    (w, float_of_int ns *. f /. 1e9, f)
  in
  (* The first world built is the one measured.  The other set-ups run
     after the measurement and are dropped, so the heap peak is that of
     one world. *)
  let w, first_s, setup_f = setup_time () in
  (* the plan's construction garbage goes before the exact round, which
     then starts from the same collector state whatever the seed *)
  Gc.full_major ();
  let setup_s () =
    let again =
      List.init (setup_reps - 1) (fun _ ->
          Gc.full_major ();
          let w, s, _ = setup_time () in
          ignore (Sys.opaque_identity w);
          s)
    in
    median (first_s :: again)
  in
  let ex = w.exact () in
  let heap = heap_peak_mb () in
  Printf.printf "inputs-digest: %s\n" ex.ex_digest;
  let lat = sorted_of_list (Array.to_list ex.ex_lat_us) in
  let sim =
    [
      ("sim_ops_per_s", float_of_int ex.ex_ops /. (ex.ex_sim_us /. 1e6), "1/s");
      ("sim_p50_us", (if Array.length lat = 2 then ex.ex_lat_us.(0) else percentile lat 50.), "us");
      ("sim_p99_us", (if Array.length lat = 2 then ex.ex_lat_us.(1) else percentile lat 99.), "us");
      ("sim_goodput_mbps", float_of_int ex.ex_bytes *. 8. /. ex.ex_sim_us, "Mb/s");
    ]
  in
  let alloc_words_per_op = ex.ex_words /. float_of_int ex.ex_ops in
  let finish ~extra_ok metrics =
    let attempted, failed = w.tally () in
    let correct = failed = 0 && attempted > 0 && extra_ok in
    (* a failed run-level check counts as at least one failed op *)
    let failed = if correct then failed else max failed 1 in
    print_endline (json_result ~correct ~attempted ~failed metrics)
  in
  if not trace then begin
    let samples = Samples.create () in
    let window = timed_window w ~seconds samples in
    let setup_s = setup_s () in
    let sorted = Samples.sorted samples in
    let attempted, failed = w.tally () in
    let metrics =
      [
        ("ops_per_s", ops_per_s window, "1/s");
        ("host_p50_us", window.p50_sum /. float_of_int (max 1 window.p50_slices), "us");
        ("host_p99_us", percentile sorted 99., "us");
        ("alloc_words_per_op", alloc_words_per_op, "words");
        ("heap_peak_mb", heap, "MB");
        ("setup_s", setup_s, "s");
        ("success_ratio", float_of_int (attempted - failed) /. float_of_int (max 1 attempted), "ratio");
      ]
      @ sim
    in
    print_table
      (Printf.sprintf "%s seed %d: %d ops timed, %d latency samples, %d attempted, %d failed"
         workload seed window.ops (Array.length sorted) attempted failed)
      metrics;
    Printf.printf "  (host speed factor %.3f; unscaled ops_per_s %.1f)\n" (speed window)
      (raw_ops_per_s window);
    finish ~extra_ok:true metrics
  end
  else begin
    (* Untraced and traced slices alternate over the same world, so
       drift in the host's speed falls on both alike.  Counter deltas
       cover the traced slices only. *)
    let replay, replay_f = Calib.scaled w.replay in
    let slices = 4 in
    let slice = seconds /. 2. /. float_of_int slices in
    let untraced = ref empty_window and traced = ref empty_window in
    let deltas = Hashtbl.create 64 in
    let counts () =
      let g = gc_snap () in
      [
        ("packet_allocs", float_of_int !Metrics.allocs);
        ("packet_copies", float_of_int !Metrics.copies);
        ("packet_bytes_copied", float_of_int !Metrics.bytes_copied);
        ("gc_minor", float_of_int g.minor);
        ("gc_major", float_of_int g.major);
        ("gc_promoted", g.promoted);
        ("minor_words", g.minor_words);
      ]
      @ w.counts ()
    in
    Seg.reset ();
    let samples = Samples.create () in
    for _ = 1 to slices do
      untraced := add_window !untraced (timed_window w ~seconds:slice (Samples.create ()));
      let uninstall = w.probes () in
      let c0 = counts () in
      Seg.start ();
      traced := add_window !traced (timed_window w ~seconds:slice samples);
      Seg.stop ();
      let c1 = counts () in
      uninstall ();
      List.iter
        (fun (k, v1) ->
          let v0 = Option.value ~default:v1 (List.assoc_opt k c0) in
          let prev = Option.value ~default:0. (Hashtbl.find_opt deltas k) in
          Hashtbl.replace deltas k (prev +. (v1 -. v0)))
        c1
    done;
    let traced = !traced and untraced = !untraced in
    let ops = float_of_int (max 1 traced.ops) in
    let delta k = Option.value ~default:0. (Hashtbl.find_opt deltas k) in
    let peak k = Option.value ~default:0. (List.assoc_opt k (w.peaks ())) in
    (* segment times at reference speed, like every other host time *)
    let f = speed traced in
    let seg l = float_of_int Seg.ns.(Seg.idx l) *. f in
    let segw l = Float.Array.get Seg.words (Seg.idx l) in
    (* The per-op total is the traced steps' host time; every layer
       segment lies inside it, and what no layer claims is reported as
       unattributed.  Words: the minor words of the traced slices,
       less the benchmark's own between steps. *)
    let total_ns = traced.scaled_ns in
    let total_words = delta "minor_words" -. segw Seg.Bench in
    let layers = List.filter (fun l -> l <> Seg.Bench) (Array.to_list Seg.all) in
    let layer_ns = List.fold_left (fun acc l -> acc +. seg l) 0. layers in
    let layer_words = List.fold_left (fun acc l -> acc +. segw l) 0. layers in
    let unattr_ns = total_ns -. layer_ns in
    let unattr_words = total_words -. layer_words in
    let sum_ok =
      Float.abs unattr_ns <= 0.1 *. total_ns
      && Float.abs unattr_words <= 0.1 *. Float.max 1. total_words
    in
    Printf.printf "%s seed %d traced: per-layer self time and minor words per op\n" workload seed;
    List.iter
      (fun l ->
        if seg l > 0. then
          Printf.printf "  %-12s %12.1f ns %10.1f words  (%5.1f%%)\n" (Seg.name l) (seg l /. ops)
            (segw l /. ops) (100. *. seg l /. total_ns))
      layers;
    Printf.printf "  %-12s %12.1f ns %10.1f words  (%5.1f%%)\n" "unattributed" (unattr_ns /. ops)
      (unattr_words /. ops) (100. *. unattr_ns /. total_ns);
    Printf.printf "  sum-check (layers within 10%% of the traced total): %s\n"
      (if sum_ok then "pass" else "FAIL");
    let traced_ops = ops_per_s traced and untraced_ops = ops_per_s untraced in
    Printf.printf "  tracing overhead: %.0f ops/s untraced, %.0f ops/s traced (%.1f%%)\n"
      untraced_ops traced_ops (100. *. (1. -. (traced_ops /. untraced_ops)));
    let raises = Float.max 1. (delta "raises") in
    let proto_segs = [ Seg.Ip; Seg.Udp; Seg.Dispatch ] in
    let sum_of g = List.fold_left (fun acc l -> acc +. g l) 0. proto_segs in
    let metrics =
      [
        ("packet.mbuf_allocs_per_op", delta "packet_allocs" /. ops, "count");
        ("packet.copies_per_op", delta "packet_copies" /. ops, "count");
        ("packet.bytes_copied_per_op", delta "packet_bytes_copied" /. ops, "B");
        ("packet.cksum_ns_per_op", replay.cksum_ns *. replay_f, "ns");
        ("proto.encode_ns_per_op", replay.encode_ns *. replay_f, "ns");
        ("proto.decode_ns_per_op", replay.decode_ns *. replay_f, "ns");
        ("proto.reassembly_ns_per_dgram", replay.reassembly_ns *. replay_f, "ns");
        ("plexus.tx_ns_per_op", seg Seg.Tx /. ops, "ns");
        ("plexus.tx_words_per_op", segw Seg.Tx /. ops, "words");
        ("plexus.conn_setup_ns", w.conn_setup_ns *. setup_f, "ns");
        ("plexus.drops", delta "plexus_drops", "count");
        ("spin.raises_per_op", delta "raises" /. ops, "count");
        ("spin.guard_evals_per_op", delta "guard_evals" /. ops, "count");
        ("spin.tree_residual_evals_per_op", delta "residual_evals" /. ops, "count");
        ("spin.dispatch_ns_per_raise", sum_of seg /. raises, "ns");
        ("spin.dispatch_words_per_raise", sum_of segw /. raises, "words");
        ("netsim.frames_per_op", delta "frames" /. ops, "count");
        ("netsim.queue_drops", delta "queue_drops", "count");
        ("netsim.rx_backlog_peak", peak "rx_backlog_peak", "count");
        ("sim.events_per_op", delta "events" /. ops, "count");
        ("sim.engine_ns_per_event", seg Seg.Netsim /. Float.max 1. (delta "events"), "ns");
        ("sim.timers_pending_peak", peak "timers_pending_peak", "count");
        ("sim.cpu_busy_share", (let s = delta "sim_ns" in if s > 0. then delta "busy_ns" /. s else 0.), "ratio");
        ("observe.spans_per_op", delta "spans" /. ops, "count");
        ("observe.flight_records_per_op", delta "flight" /. ops, "count");
        ("observe.emit_ns_per_span", replay.emit_ns *. replay_f, "ns");
        ("gc.minor_collections_per_kop", 1000. *. delta "gc_minor" /. ops, "count");
        ("gc.major_collections_per_kop", 1000. *. delta "gc_major" /. ops, "count");
        ("gc.promoted_words_per_op", delta "gc_promoted" /. ops, "words");
        ("trace.ops_per_s", traced_ops, "1/s");
        ("trace.overhead_share", 1. -. (traced_ops /. untraced_ops), "ratio");
        ("trace.unattributed_ns_share", unattr_ns /. total_ns, "ratio");
        ("trace.unattributed_words_share", unattr_words /. Float.max 1. total_words, "ratio");
      ]
    in
    print_table (Printf.sprintf "%s seed %d per-layer" workload seed) metrics;
    (try
       if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
       Seg.write_spans (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed))
     with Sys_error e -> Printf.printf "spans not written: %s\n" e);
    finish ~extra_ok:sum_ok metrics
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out_dir = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--out", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "plexbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out_dir:!out_dir
