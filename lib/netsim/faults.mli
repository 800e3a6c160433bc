(** Composable per-link fault plans.

    A plan is a deterministic adversary for one direction of a link: it
    decides, frame by frame, whether the wire drops, corrupts,
    duplicates or delays what was just serialized, driven entirely by an
    explicit {!Sim.Rng} stream so every run is reproducible from a seed.

    The plan itself only renders {e verdicts} ({!verdict}); applying
    them — freeing a dropped frame, flipping the corrupted byte,
    scheduling the delayed copy — is the device's job ({!Dev.set_faults}),
    which keeps the plan free of buffer-ownership concerns and usable
    from tests directly.  Every injected fault is counted here, and the
    counters are exported as registry gauges ({!register}) so chaos
    harnesses can reconcile what was injected against what the stack
    observed. *)

(** Loss processes.  [Gilbert_elliott] is the classic two-state burst
    model: the link flips between a good and a bad state with the given
    per-frame transition probabilities and drops with a per-state loss
    probability, producing correlated loss bursts rather than
    independent Bernoulli drops. *)
type loss =
  | No_loss
  | Bernoulli of float
  | Gilbert_elliott of {
      p_gb : float;  (** P(good -> bad) per frame *)
      p_bg : float;  (** P(bad -> good) per frame *)
      loss_good : float;
      loss_bad : float;
    }

type t

val create : ?name:string -> rng:Sim.Rng.t -> unit -> t
(** A fresh plan with no faults enabled.  [rng] is consumed one draw per
    enabled fault class per frame; pass a {!Sim.Rng.split} of the
    simulation stream to keep the plan's draws independent. *)

val name : t -> string

val set_loss : t -> loss -> unit
(** @raise Invalid_argument if any probability is outside [0, 1]. *)

val set_corrupt : t -> ?min_off:int -> float -> unit
(** Flip one byte (XOR with a random non-zero mask) of each frame with
    the given probability, at a uniform offset in [[min_off, len)].
    [min_off] defaults to 14 (past the Ethernet header, so corruption is
    always visible to a checksum rather than silently demuxed away);
    frames shorter than [min_off + 1] pass untouched.
    @raise Invalid_argument if the probability is outside [0, 1] or
    [min_off < 0]. *)

val set_duplicate : t -> float -> unit
(** Deliver an extra copy of the frame with the given probability.
    @raise Invalid_argument outside [0, 1]. *)

val set_jitter : t -> ?max_delay:Sim.Stime.t -> float -> unit
(** With the given probability, delay a frame by a uniform extra time in
    [[0, max_delay)] (default 500 us) on top of propagation — enough to
    reorder it behind later frames.  @raise Invalid_argument outside
    [0, 1]. *)

(** What the wire should do with one copy of the frame. *)
type delivery = {
  corrupt_at : int option;  (** flip the byte at this offset ... *)
  xor_mask : int;  (** ... XORing with this non-zero 8-bit mask *)
  extra_delay : Sim.Stime.t;  (** added to propagation delay *)
}

type verdict =
  | Drop of string  (** drop the frame; the payload names the fault *)
  | Deliver of delivery list
      (** deliver one copy per element (two when duplicated) *)

val verdict : t -> len:int -> verdict
(** Render the plan's decision for one frame of [len] bytes completing
    wire transmission.  Counts every injected fault. *)

(** Injection counters — what the plan has done so far. *)

val drops : t -> int
(** Frames dropped by the loss process. *)

val corruptions : t -> int
val duplicates : t -> int
val delays : t -> int

val register : t -> Observe.Registry.t -> prefix:string -> unit
(** Publish the injection counters as sampling gauges
    ([<prefix>.loss_drops|corruptions|duplicates|delays]). *)
