(** Per-domain datapath nodes and the multicore runner.

    [run ~domains plan] executes an {!Rss} plan across [domains] OCaml 5
    execution domains ([Stdlib.Domain] — not to be confused with
    {!Spin.Domain}, the paper's protection domain).  Each worker owns a
    complete, private instance of the steady-state server world: its own
    simulation engine, protocol stack, dispatcher with flow-path cache,
    metric registry and (via the domain-local mbuf free lists) its own
    buffer pool — the fast path never crosses a domain boundary.  The
    NIC model steers each frame to the worker given by
    {!Rss.steer}; frames whose {!Rss.owner} differs are forwarded
    owner-ward over bounded {!Spsc} rings and drained in batches.

    [run ~domains:1] is the deterministic single-domain oracle: no
    domain is spawned, nothing is forwarded, and the seeded engine
    behaves exactly as every other experiment's.  Because a flow's
    steer and owner are constant, all its frames take one FIFO path, so
    every per-flow counter sequence — delivery, cache hit/miss, ARP
    replies — is identical in oracle and parallel runs; the equivalence
    soak asserts this counter-for-counter via {!equiv_counters}. *)

type domain_stats = {
  dom : int;
  processed : int;  (** frames this node injected into its own stack *)
  forwarded_out : int;  (** mis-sharded frames pushed to peer rings *)
  forwarded_in : int;  (** frames drained from peer rings *)
  delivered : int;
  udp_rx : int;
  arp_replies : int;
  tap_frames : int;
  acct_bytes : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  tree_raises : int;  (** raises served by a merged decision-tree walk *)
  tree_residual_evals : int;
      (** opaque guards the tree could not prove and had to evaluate *)
  swaps : int;
      (** tap-extension hot-swaps ({!Spin.Linker.replace}) this node
          performed under [swap_every] churn *)
  busy_us : float;  (** this node's simulated CPU busy time *)
  registry : Observe.Registry.t;  (** the node's kernel registry *)
  flight : Observe.Flight.t;
      (** the node's trace endpoint (the flight records it emitted) *)
}

type stats = {
  domains : int;
  frames : int;
  delivered : int;
  udp_rx : int;
  arp_replies : int;
  tap_frames : int;
  acct_bytes : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  tree_raises : int;
  tree_residual_evals : int;
  swaps : int;  (** total hot-swaps across all domains *)
  forwarded : int;
  busy_us : float array;
  busy_max_us : float;  (** makespan: the loaded domain bounds the run *)
  busy_sum_us : float;
  datagrams_per_s : float;
      (** aggregate throughput in {e simulated} time:
          delivered / busy_max — the host-independent speedup metric *)
  wall_s : float;  (** host wall clock, informational only *)
  per_domain : domain_stats array;
  registry : Observe.Registry.t;
      (** per-domain registries merged under [domainN.] prefixes *)
  flight : Observe.Flight.t;
      (** per-domain flight recorders merged; each record keeps the
          domain that emitted it, so a forwarded packet's timeline shows
          the steering node's [Handoff] followed by the owner's
          records *)
}

val run :
  ?flowcache:bool -> ?flight_rate:int -> ?swap_every:int ->
  domains:int -> Rss.t -> stats
(** Execute the plan.  [flowcache] (default true) enables the flow-path
    cache in every node.  Each node injects its own frames in bursts of
    32 and drains its rings every 32 steered frames; each SPSC ring
    holds 1024 frames.  [flight_rate] (default 0 = off) turns on
    1-in-N flight-recorder sampling: marks are pre-computed from each
    frame's plan ordinal ({!Rss.frame.pkt}) with the plan's seed, so
    the sampled packet-id set is identical for every domain count and a
    handed-off frame keeps its timeline across the ring.  [swap_every]
    (default 0 = never) makes each node hot-swap its wire-tap extension
    ({!Spin.Linker.replace}) after every Nth frame it injects: a
    lifecycle-churn soak — every generation is behaviorally identical,
    so {!equiv_counters} must still match the oracle.  Run swap churn
    with [~flowcache:false]: each swap bumps the event generation,
    which invalidates path recordings at points that depend on where
    frames landed per domain, so hit/miss counts would diverge from the
    oracle for reasons that are bookkeeping, not behavior.
    @raise Invalid_argument if [domains < 1]. *)

val equiv_counters : stats -> (string * int) list
(** The counters the oracle-equivalence soak compares: totals that must
    be identical between [run ~domains:1] and [run ~domains:n] of the
    same plan. *)
