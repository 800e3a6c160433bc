(** Calibrated cost model for the Alpha-21064-era testbed.

    See costs.ml for the calibration rationale; EXPERIMENTS.md compares
    the resulting measurements with the paper figure by figure. *)

module T = Sim.Stime

type layer = {
  ether_in : T.t;
  ether_out : T.t;
  ip_in : T.t;
  ip_out : T.t;
  udp_in : T.t;
  udp_out : T.t;
  tcp_in : T.t;
  tcp_out : T.t;
  app : T.t;
  cksum_ns_per_byte : float;
  copy_ns_per_byte : float;
}

type os = {
  trap : T.t;
  copy_fixed : T.t;
  ctx_switch : T.t;
  wakeup : T.t;
  socket_in : T.t;
  socket_out : T.t;
}

type t = {
  layer : layer;
  os : os;
  dispatch : Spin.Dispatcher.costs;
  fwd_rewrite : T.t;
  splice_user : T.t;
  disk_dma_setup : T.t;
  disk_intr : T.t;
  fb_ns_per_byte : float;
}

val default : t

val per_byte : float -> int -> T.t
(** [per_byte ns_per_byte len] is the cost of touching [len] bytes. *)

(** {1 Devices} *)

type device = {
  label : string;
  mtu : int;
  bw_bits_per_s : int;
  tx_fixed : T.t;
  rx_fixed : T.t;
  pio_ns_per_byte : float;
  frame_overhead : int -> int;
  prop_delay : T.t;
  txq_limit : int;
  shared_medium : bool;
}

val ethernet : ?fast:bool -> unit -> device
(** 10 Mb/s LANCE Ethernet (DMA).  [~fast:true] is the "faster device
    driver" of section 4.1. *)

val atm : ?fast:bool -> unit -> device
(** 155 Mb/s Fore TCA-100 (programmed I/O, ~53 Mb/s CPU-bound ceiling). *)

val t3 : unit -> device
(** 45 Mb/s DEC T3 (DMA), hosts back to back. *)

val loopback : unit -> device
(** Idealized free device for unit tests. *)
