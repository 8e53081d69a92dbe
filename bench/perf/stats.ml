(** Sample buffers and order statistics. *)

(** A growable float buffer; [push] allocates only when it doubles. *)
type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 1024 0.; n = 0 }

let push (b : buf) (x : float) =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let sorted (b : buf) : float array =
  let a = Array.sub b.a 0 b.n in
  Array.sort Float.compare a;
  a

(** [p]-th percentile (0–100) of a sorted array, interpolating between
    the two closest ranks; [0.] when empty. *)
let percentile (a : float array) (p : float) : float =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median (xs : float list) : float =
  percentile (Array.of_list (List.sort Float.compare xs)) 50.

(** First and third quartile exactly as Python's
    [statistics.quantiles(xs, n=4)] (the default "exclusive" method)
    computes them; needs at least two values. *)
let quartiles (xs : float list) : float * float =
  let d = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length d in
  let q i =
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 3)
