(* Bounded ring buffer: pushes past capacity overwrite the oldest
   element and are counted in [dropped].

   The slots hold elements unboxed.  The array is allocated at the
   first push, filled with that element, so a ring that is never
   pushed to (a trace endpoint whose sampling stays off) costs no
   array, and a push allocates nothing. *)

type 'a t = {
  mutable buf : 'a array; (* empty until the first push *)
  cap : int;
  mutable head : int; (* next write slot *)
  mutable len : int;
  mutable dropped : int; (* overwritten elements *)
}

let create ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Ring.create: capacity";
  { buf = [||]; cap = capacity; head = 0; len = 0; dropped = 0 }

let capacity t = t.cap
let length t = t.len
let dropped t = t.dropped

let clear t =
  t.buf <- [||];
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

let push t x =
  if Array.length t.buf = 0 then t.buf <- Array.make t.cap x;
  if t.len = t.cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.buf.(t.head) <- x;
  t.head <- (t.head + 1) mod t.cap

(* Oldest retained element first. *)
let to_list t =
  let start = (t.head - t.len + t.cap) mod t.cap in
  List.init t.len (fun i -> t.buf.((start + i) mod t.cap))

let merge_into ~into src =
  List.iter (push into) (to_list src);
  into.dropped <- into.dropped + src.dropped
