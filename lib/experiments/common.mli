(** Shared experiment scaffolding: canonical testbeds, the closed-loop
    driver and echo workloads. *)

val ip_a : Proto.Ipaddr.t
val ip_b : Proto.Ipaddr.t
val ip_client : Proto.Ipaddr.t
val ip_middle : Proto.Ipaddr.t
val ip_middle2 : Proto.Ipaddr.t
val ip_server : Proto.Ipaddr.t
val net1 : Proto.Ipaddr.t
val net2 : Proto.Ipaddr.t

type plexus_pair = {
  engine : Sim.Engine.t;
  a : Plexus.Stack.t;
  b : Plexus.Stack.t;
}

val plexus_pair :
  ?costs:Netsim.Costs.t -> ?observe:bool -> ?flowcache:bool ->
  Netsim.Costs.device -> plexus_pair
(** Two hosts with full Plexus stacks, ARP primed.  [observe] (default
    true) controls per-kernel metrics registries; [flowcache] (default
    false) enables the dispatchers' per-flow fast-path cache. *)

type du_pair = {
  du_engine : Sim.Engine.t;
  dua : Osmodel.Du_stack.t;
  dub : Osmodel.Du_stack.t;
}

val du_pair : ?costs:Netsim.Costs.t -> Netsim.Costs.device -> du_pair

(** {1 Closed-loop measurement} *)

val closed_loop :
  ?pace:((unit -> unit) -> unit) -> engine:Sim.Engine.t -> warmup:int ->
  iters:int -> send:(unit -> unit) -> ((unit -> unit) -> unit) ->
  (unit -> unit) * (unit -> float list)
(** [closed_loop ~engine ~warmup ~iters ~send on_reply] drives
    [warmup + iters] request/reply rounds with one request in flight.
    [send ()] issues a request; [on_reply] is handed [reply], which the
    caller's receive path calls when a round's answer is complete.
    [reply] records the round trip in µs (after [warmup] rounds) and
    hands the next round to [pace] (default: send it at once); a reply
    with no request outstanding is ignored.  Returns [start], which sends
    the first request, and the samples so far, newest first. *)

val mean : float list -> float
(** Arithmetic mean, summed in list order; [nan] when empty. *)

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [0..100]: exact, linearly interpolated
    between the two nearest ranks; [nan] when empty. *)

val mean_rtt :
  engine:Sim.Engine.t -> warmup:int -> iters:int -> send:(unit -> unit) ->
  ((unit -> unit) -> unit) -> float
(** {!closed_loop}, started at once and run until the engine is idle:
    the mean round trip in µs. *)

val mean_txn_time :
  engine:Sim.Engine.t -> warmup:int -> iters:int -> ((unit -> unit) -> unit) ->
  float
(** Transactions on fresh connections, one at a time: [txn ok] starts one
    and calls [ok] when it completes, and the next starts 1 ms later.
    Runs for at most 600 simulated seconds; a transaction that never
    completes ends the run.  The mean completion time in µs. *)

(** {1 UDP echo} *)

val bind_exn : Plexus.Udp_mgr.t -> owner:string -> port:int -> Plexus.Endpoint.t

val udp_echo_server :
  ?install:
    (Plexus.Udp_mgr.t -> Plexus.Endpoint.t -> (Plexus.Pctx.t -> unit) ->
     unit -> unit) ->
  Plexus.Udp_mgr.t -> unit
(** Bind port 7 and install ([install_recv] by default) a handler that
    sends every datagram back to its source. *)

val ping_rtt :
  plexus_pair -> warmup:int -> iters:int ->
  (Plexus.Udp_mgr.t -> Plexus.Endpoint.t -> unit) -> float
(** [ping_rtt p ~warmup ~iters send] binds port 5001 on [p.a] and runs
    {!mean_rtt}: [send udp client] issues each request, every datagram
    back to the client completes a round. *)

val udp_echo_plexus :
  ?costs:Netsim.Costs.t -> ?mode:Spin.Dispatcher.delivery -> ?payload_len:int ->
  ?warmup:int -> ?iters:int -> Netsim.Costs.device -> float
(** UDP echo over a Plexus pair; the mean round trip in µs. *)

val udp_echo_du :
  ?payload_len:int -> ?warmup:int -> ?iters:int -> Netsim.Costs.device -> float

val udp_echo_ulib :
  ?payload_len:int -> ?warmup:int -> ?iters:int -> Netsim.Costs.device -> float
(** The same echo through a user-level protocol library (section 6's
    related-work model). *)

val raw_device_rtt : Netsim.Costs.device -> len:int -> float
(** Theoretical driver-to-driver round trip in µs (the paper's "minimal
    round trip time between the device drivers"). *)

val print_header : string -> unit
val print_row : ('a, out_channel, unit) format -> 'a
val mbps : bytes:int -> elapsed_us:float -> float
