(** Discrete-event simulation engine.

    An engine owns a virtual clock and a queue of pending events.  Running
    the engine pops events in time order, advancing the clock; an event is
    an arbitrary thunk that may schedule further events. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

val create : ?seed:int -> unit -> t
(** Fresh engine with clock at zero.  [seed] initialises {!rng}. *)

val now : t -> Stime.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's deterministic random stream. *)

val events_run : t -> int
(** Number of events executed so far. *)

val pending : t -> int
(** Number of live events still queued.  Cancelled events are removed
    eagerly and never counted. *)

val placements : t -> int
(** Number of bucket insertions into the engine's timer wheel so far: one
    per schedule, plus one per node each time a cascade moves it.  A
    node that is the earliest in its bucket when the bucket is cascaded
    moves once, straight to the bucket that fires next. *)

val schedule : t -> at:Stime.t -> (unit -> unit) -> handle
(** [schedule t ~at k] runs [k] when the clock reaches [at].
    @raise Invalid_argument if [at] is in the past. *)

val schedule_in : t -> delay:Stime.t -> (unit -> unit) -> handle
(** [schedule_in t ~delay k] runs [k] after [delay] of virtual time. *)

val cancel : handle -> unit
(** Prevent a scheduled event from running.  Its thunk is dropped at
    once, so cancellation retains no closure until the original
    deadline, and {!pending} stops counting it.  Idempotent; cancelling
    an event that already fired does nothing. *)

val step : t -> bool
(** Run the single earliest event.  [false] when the queue is empty. *)

val run : ?until:Stime.t -> ?max_events:int -> t -> unit
(** Run events until the queue empties, the clock would pass [until], or
    [max_events] have executed.  When [until] is given the clock is left at
    exactly [until] (or later if an event fired there). *)
