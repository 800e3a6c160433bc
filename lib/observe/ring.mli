(** Bounded in-memory buffer; the newest elements win.  One
    implementation serves both outputs of a trace endpoint: its ring
    sink ({!Trace.Ring}) and its sampled flight records ({!Flight}).
    The slots are allocated at the first push, so a ring never pushed
    to costs no array, and a push allocates nothing. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 1024.  @raise Invalid_argument if [<= 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val dropped : 'a t -> int
(** Elements overwritten since the last {!clear}. *)

val clear : 'a t -> unit
val push : 'a t -> 'a -> unit

val to_list : 'a t -> 'a list
(** Retained elements, oldest first. *)

val merge_into : into:'a t -> 'a t -> unit
(** Push the source's retained elements into [into], oldest first, and
    add its overwrite count to [into]'s. *)
