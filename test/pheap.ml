(* Binary min-heap keyed by (int key, int sequence).  The sequence number
   makes pops stable: among equal keys, insertion order wins, as in the
   engine's (key, seq) firing order that the tests check against it. *)

type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = {
  mutable arr : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { arr = [||]; size = 0; next_seq = 0 }

let size h = h.size
let is_empty h = h.size = 0

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow h =
  let cap = Array.length h.arr in
  let ncap = if cap = 0 then 16 else cap * 2 in
  (* Safe: slot 0 is only read as a template, never observed as content. *)
  let narr = Array.make ncap h.arr.(0) in
  Array.blit h.arr 0 narr 0 h.size;
  h.arr <- narr

let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if less h.arr.(i) h.arr.(p) then begin
      let tmp = h.arr.(i) in
      h.arr.(i) <- h.arr.(p);
      h.arr.(p) <- tmp;
      sift_up h p
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < h.size && less h.arr.(l) h.arr.(i) then l else i in
  let m = if r < h.size && less h.arr.(r) h.arr.(m) then r else m in
  if m <> i then begin
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(m);
    h.arr.(m) <- tmp;
    sift_down h m
  end

let add h ~key value =
  let e = { key; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  if Array.length h.arr = 0 then h.arr <- Array.make 16 e
  else if h.size = Array.length h.arr then grow h;
  h.arr.(h.size) <- e;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek_min h = if h.size = 0 then None else Some (h.arr.(0).key, h.arr.(0).value)

let pop_min h =
  if h.size = 0 then None
  else begin
    let e = h.arr.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.arr.(0) <- h.arr.(h.size);
      sift_down h 0
    end;
    Some (e.key, e.value)
  end

let clear h = h.size <- 0
