(* Shared experiment scaffolding: canonical two-host and three-host
   testbeds under both OS models, echo servers/clients, and helpers for
   driving the simulation to completion. *)

let ip_a = Proto.Ipaddr.v 10 0 1 1
let ip_b = Proto.Ipaddr.v 10 0 1 2
let ip_client = Proto.Ipaddr.v 10 0 1 2
let ip_middle = Proto.Ipaddr.v 10 0 1 1
let ip_middle2 = Proto.Ipaddr.v 10 0 2 1
let ip_server = Proto.Ipaddr.v 10 0 2 2

let net1 = Proto.Ipaddr.v 10 0 1 0
let net2 = Proto.Ipaddr.v 10 0 2 0

type plexus_pair = {
  engine : Sim.Engine.t;
  a : Plexus.Stack.t;
  b : Plexus.Stack.t;
}

let plexus_pair ?costs ?observe ?(flowcache = false) params =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair ?costs ?observe engine params ~a:("hostA", ip_a)
      ~b:("hostB", ip_b)
  in
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  Plexus.Stack.prime_arp a b;
  if flowcache then begin
    Spin.Dispatcher.set_flow_cache (Plexus.Graph.dispatcher (Plexus.Stack.graph a)) true;
    Spin.Dispatcher.set_flow_cache (Plexus.Graph.dispatcher (Plexus.Stack.graph b)) true
  end;
  { engine; a; b }

type du_pair = {
  du_engine : Sim.Engine.t;
  dua : Osmodel.Du_stack.t;
  dub : Osmodel.Du_stack.t;
}

let du_pair ?costs params =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair ?costs engine params ~a:("hostA", ip_a)
      ~b:("hostB", ip_b)
  in
  let dua = Osmodel.Du_stack.create ea.Netsim.Network.host in
  let dub = Osmodel.Du_stack.create eb.Netsim.Network.host in
  Osmodel.Du_stack.prime_arp dua ip_b (Netsim.Dev.mac eb.Netsim.Network.dev);
  Osmodel.Du_stack.prime_arp dub ip_a (Netsim.Dev.mac ea.Netsim.Network.dev);
  { du_engine = engine; dua; dub }

(* --- closed-loop measurement -------------------------------------------- *)

(* One request in flight at a time: [send] issues a request, and the
   caller's receive path calls the [reply] that [on_reply] is handed when
   the round's answer is complete.  [reply] records the round trip in
   microseconds once the [warmup] rounds are done, then [pace]s the next
   request (immediately by default); a reply with no request outstanding
   is ignored.  Returns [start] and the samples so far, newest first. *)
let closed_loop ?(pace = fun next -> next ()) ~engine ~warmup ~iters ~send
    on_reply =
  let samples = ref [] in
  let remaining = ref (warmup + iters) in
  let sent_at = ref Sim.Stime.zero in
  let in_flight = ref false in
  let send_next () =
    if !remaining > 0 then begin
      decr remaining;
      in_flight := true;
      sent_at := Sim.Engine.now engine;
      send ()
    end
  in
  on_reply (fun () ->
      if !in_flight then begin
        in_flight := false;
        if !remaining < iters then
          samples :=
            Sim.Stime.to_us (Sim.Stime.sub (Sim.Engine.now engine) !sent_at)
            :: !samples;
        pace send_next
      end);
  (send_next, fun () -> !samples)

(* The summation order (newest sample first) and the [compare] sort fix
   the last bit of every reported figure; the golden snapshot pins them. *)
let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile xs p =
  match Array.of_list (List.sort compare xs) with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

(* Start a closed loop, run the engine dry and return the mean round trip. *)
let mean_rtt ~engine ~warmup ~iters ~send on_reply =
  let start, samples = closed_loop ~engine ~warmup ~iters ~send on_reply in
  start ();
  Sim.Engine.run engine ~max_events:10_000_000;
  mean (samples ())

(* Transactions on fresh connections: [txn ok] starts one and calls [ok]
   when it completes.  The next starts 1 ms later, past the previous
   connection's close; a transaction that fails ends the run, as a lost
   datagram ends an echo.  Returns the mean completion time. *)
let mean_txn_time ~engine ~warmup ~iters txn =
  let reply = ref (fun () -> ()) in
  let start, samples =
    closed_loop ~engine ~warmup ~iters
      ~pace:(fun next ->
        ignore (Sim.Engine.schedule_in engine ~delay:(Sim.Stime.ms 1) next))
      ~send:(fun () -> txn !reply)
      (fun r -> reply := r)
  in
  start ();
  Sim.Engine.run engine ~until:(Sim.Stime.s 600) ~max_events:50_000_000;
  mean (samples ())

(* --- UDP echo round-trip measurement --------------------------------- *)

let bind_exn udp ~owner ~port =
  match Plexus.Udp_mgr.bind udp ~owner ~port with
  | Ok ep -> ep
  | Error _ -> assert false

(* An echo extension on [udp]'s port 7: every datagram goes back to its
   sender. *)
let udp_echo_server
    ?(install = fun udp ep fn -> Plexus.Udp_mgr.install_recv udp ep fn) udp =
  let server = bind_exn udp ~owner:"echo" ~port:7 in
  let (_ : unit -> unit) =
    install udp server (fun ctx ->
        let data = View.to_string (Plexus.Pctx.view ctx) in
        let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
        Plexus.Udp_mgr.send udp server ~dst:(src, ctx.Plexus.Pctx.src_port) data)
  in
  ()

(* The pinging extension on A: [send udp client] sends one request from
   port 5001; each datagram back completes a round. *)
let ping_rtt p ~warmup ~iters send =
  let udp_a = Plexus.Stack.udp p.a in
  let client = bind_exn udp_a ~owner:"ping" ~port:5001 in
  mean_rtt ~engine:p.engine ~warmup ~iters
    ~send:(fun () -> send udp_a client)
    (fun reply ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_a client (fun _ -> reply ())
      in
      ())

(* Plexus: an echo extension on B, a pinging extension on A.  Returns the
   mean round trip in microseconds. *)
let udp_echo_plexus ?costs ?(mode = Spin.Dispatcher.Interrupt)
    ?(payload_len = 8) ?(warmup = 20) ?(iters = 200) params =
  let p = plexus_pair ?costs params in
  Plexus.Stack.set_delivery p.a mode;
  Plexus.Stack.set_delivery p.b mode;
  udp_echo_server (Plexus.Stack.udp p.b);
  let payload = String.make payload_len 'x' in
  ping_rtt p ~warmup ~iters (fun udp client ->
      Plexus.Udp_mgr.send udp client ~dst:(ip_b, 7) payload)

(* DIGITAL UNIX: same workload over sockets. *)
let udp_echo_du ?(payload_len = 8) ?(warmup = 20) ?(iters = 200) params =
  let p = du_pair params in
  let server =
    match Osmodel.Du_stack.udp_bind p.dub ~port:7 with
    | Ok s -> s
    | Error _ -> assert false
  in
  Osmodel.Du_stack.udp_set_recv server (fun ~src data ->
      Osmodel.Du_stack.udp_sendto p.dub server ~dst:src data);
  let client =
    match Osmodel.Du_stack.udp_bind p.dua ~port:5001 with
    | Ok s -> s
    | Error _ -> assert false
  in
  let payload = String.make payload_len 'x' in
  mean_rtt ~engine:p.du_engine ~warmup ~iters
    ~send:(fun () ->
      Osmodel.Du_stack.udp_sendto p.dua client ~dst:(ip_b, 7) payload)
    (fun reply ->
      Osmodel.Du_stack.udp_set_recv client (fun ~src:_ _ -> reply ()))

(* User-level protocol library (section 6's related-work model): same
   workload through Osmodel.Ulib. *)
let udp_echo_ulib ?(payload_len = 8) ?(warmup = 20) ?(iters = 200) params =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine params ~a:("hostA", ip_a) ~b:("hostB", ip_b)
  in
  let ua = Osmodel.Ulib.create ea.Netsim.Network.host in
  let ub = Osmodel.Ulib.create eb.Netsim.Network.host in
  Osmodel.Ulib.prime_arp ua ip_b (Netsim.Dev.mac eb.Netsim.Network.dev);
  Osmodel.Ulib.prime_arp ub ip_a (Netsim.Dev.mac ea.Netsim.Network.dev);
  let server =
    match Osmodel.Ulib.udp_bind ub ~port:7 with
    | Ok s -> s
    | Error _ -> assert false
  in
  Osmodel.Ulib.udp_set_recv server (fun ~src data ->
      Osmodel.Ulib.udp_sendto ub server ~dst:src data);
  let client =
    match Osmodel.Ulib.udp_bind ua ~port:5001 with
    | Ok s -> s
    | Error _ -> assert false
  in
  let payload = String.make payload_len 'x' in
  mean_rtt ~engine ~warmup ~iters
    ~send:(fun () -> Osmodel.Ulib.udp_sendto ua client ~dst:(ip_b, 7) payload)
    (fun reply -> Osmodel.Ulib.udp_set_recv client (fun ~src:_ _ -> reply ()))

(* Theoretical driver-to-driver round trip: what the paper's "minimal
   round trip time using our hardware as measured between the device
   drivers" bar shows. *)
let raw_device_rtt (params : Netsim.Costs.device) ~len =
  let one_way =
    Sim.Stime.to_us params.tx_fixed
    +. Sim.Stime.to_us params.rx_fixed
    +. (params.pio_ns_per_byte *. float_of_int len /. 1000. *. 2.)
    +. float_of_int (params.frame_overhead len)
       *. 8e6 /. float_of_int params.bw_bits_per_s
    +. Sim.Stime.to_us params.prop_delay
  in
  2. *. one_way

(* --- table rendering -------------------------------------------------- *)

let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let print_row fmt = Printf.printf fmt

let mbps ~bytes ~elapsed_us = float_of_int bytes *. 8. /. elapsed_us
