(** Ablations of design choices the paper calls out: guard scaling, the
    anti-spoofing policy, the checksum-disabled UDP variant, dispatcher
    cost sensitivity, and multicast semantics for the video server. *)

type guard_point = { extra_endpoints : int; rtt_us : float; indexed_rtt_us : float }

val guard_scaling : ?counts:int list -> ?iters:int -> unit -> guard_point list
(** UDP echo RTT with N extra (non-matching) endpoint guards installed:
    [rtt_us] with the bystanders unkeyed (every guard evaluated, as in a
    linear scan), [indexed_rtt_us] with them keyed on their port (pruned
    by the dispatch-tree walk). *)

type spoof_result = {
  overwrite_rtt : float;
  verify_rtt : float;
  spoofs_rejected : int;
}

val spoof_policy : ?iters:int -> unit -> spoof_result

type cksum_result = { with_cksum : float; without_cksum : float }

val cksum_variant : ?payload_len:int -> ?iters:int -> unit -> cksum_result

type filter_result = {
  native_rtt : float;
  interpreted_rtt : float;
  compiled_rtt : float;
  nodes : int;
}

val filter_vs_guard : ?iters:int -> unit -> filter_result
(** Echo RTT with the endpoint demultiplexed by a native guard vs. a
    rich interpreted packet filter vs. the same filter compiled. *)

type dispatch_point = { factor : int; rtt_us : float }

val dispatch_sensitivity :
  ?factors:int list -> ?iters:int -> unit -> dispatch_point list
(** Figure-5 Ethernet RTT with dispatch+guard costs inflated N-fold. *)

val video_multicast_util : ?streams:int -> unit -> float * float
(** Server CPU utilization [(unicast, multicast)] when every client
    watches the same stream. *)

val print : unit -> unit
