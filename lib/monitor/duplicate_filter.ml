(** In-network replay suppression (§2.3, [32]).

    An on-path adversary can capture an authenticated Colibri packet
    and replay it to overuse the reservation and frame the honest
    source. The duplicate filter discards copies of already-seen
    packets, identified by their unique (SrcAS, ResId, ExpT, Ts) tuple
    (§4.3), with bounded memory: two alternating Bloom filters cover a
    sliding window of [2 × window] seconds — enough because a packet
    older than the maximum clock skew plus network delay is rejected by
    the freshness check before it ever reaches this filter.

    False positives of the Bloom filter drop a legitimate packet
    (bounded by [fp_rate]); false negatives never occur within the
    window, so replays inside it are always caught. *)

type t = {
  bits : int; (* size of each filter, bits *)
  hashes : int;
  window : float; (* seconds covered by one filter generation *)
  mutable current : Bytes.t;
  mutable previous : Bytes.t;
  mutable rotated_at : float;
  mutable inserted : int; (* into current generation *)
}

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  let j = i lsr 3 in
  Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lor (1 lsl (i land 7))))

(** [create ~expected ~fp_rate ~window ~now] sizes the filters for
    [expected] packets per [window] seconds at false-positive rate
    [fp_rate]. *)
let create ~(expected : int) ~(fp_rate : float) ~(window : float) ~(now : float) : t =
  if expected <= 0 || fp_rate <= 0. || fp_rate >= 1. || window <= 0. then
    (* Construction-time validation; never on the per-packet path. *)
    (* lint: allow hot-path-exn *)
    invalid_arg "Duplicate_filter.create";
  let ln2 = Float.log 2. in
  let bits =
    int_of_float
      (Float.ceil (-.float_of_int expected *. Float.log fp_rate /. (ln2 *. ln2)))
  in
  let bits = max 64 ((bits + 7) / 8 * 8) in
  let hashes = max 1 (int_of_float (Float.round (float_of_int bits /. float_of_int expected *. ln2))) in
  {
    bits;
    hashes = min hashes 16;
    window;
    current = Bytes.make (bits / 8) '\000';
    previous = Bytes.make (bits / 8) '\000';
    rotated_at = now;
    inserted = 0;
  }

let maybe_rotate (t : t) ~now =
  let elapsed = now -. t.rotated_at in
  if elapsed >= 2. *. t.window then begin
    (* Idle gap of two or more windows: both generations are fully
       stale. Keeping the old [current] as [previous] here would flag a
       legitimate packet sent long after its twin aged out. *)
    Bytes.fill t.current 0 (Bytes.length t.current) '\000';
    Bytes.fill t.previous 0 (Bytes.length t.previous) '\000';
    t.rotated_at <- now;
    t.inserted <- 0
  end
  else if elapsed >= t.window then begin
    (* The old [previous] ages out entirely; [current] becomes the
       history for the next window. *)
    let old = t.previous in
    Bytes.fill old 0 (Bytes.length old) '\000';
    t.previous <- t.current;
    t.current <- old;
    t.rotated_at <- now;
    t.inserted <- 0
  end

(* Double hashing: h_i = h1 + i*h2, standard Bloom technique. The
   filter mixes its key itself (a splitmix-style finalizer on OCaml's
   63-bit ints: xorshifts and odd multiplies, each a bijection), so
   small or sequential keys spread over every probe position; h1 and h2
   are the low and high 31-bit halves of the mixed value, h2 forced odd
   so the probe sequence never degenerates. Bloom indexing needs a fast
   non-cryptographic spread, not authentication — a collision only
   costs a bounded false-positive drop, never a forged acceptance. *)
let mix (key : int) : int =
  let h = key lxor (key lsr 30) in
  let h = h * 0x3f58476d1ce4e5b9 in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14d049bb133111eb in
  h lxor (h lsr 31)

(* [land max_int], not [abs]: [abs min_int] is [min_int], so an
   overflowing sum would produce a negative [mod] and an out-of-bounds
   bit index. Masking the sign bit is total. *)
let probe (t : t) ~(h1 : int) ~(h2 : int) (i : int) : int =
  (h1 + (i * h2)) land max_int mod t.bits

(* Probe loops are top-level recursive functions, not closures over an
   index array: this runs per packet on the monitored wire path and
   must not allocate. *)
let rec all_set (t : t) (field : Bytes.t) ~h1 ~h2 (i : int) : bool =
  i >= t.hashes || (bit_get field (probe t ~h1 ~h2 i) && all_set t field ~h1 ~h2 (i + 1))

let rec set_all (t : t) ~h1 ~h2 (i : int) : unit =
  if i < t.hashes then begin
    bit_set t.current (probe t ~h1 ~h2 i);
    set_all t ~h1 ~h2 (i + 1)
  end

let h1_of (h : int) = h land 0x7fffffff
let h2_of (h : int) = (h lsr 31) land 0x7fffffff lor 1

let seen (t : t) ~h1 ~h2 = all_set t t.current ~h1 ~h2 0 || all_set t t.previous ~h1 ~h2 0

let mem (t : t) (key : int) : bool =
  let h = mix key in
  seen t ~h1:(h1_of h) ~h2:(h2_of h)

(** [check_and_insert t ~now key] returns [true] when [key] is fresh
    (first sighting in the window) and records it; [false] flags a
    duplicate to be discarded. *)
let check_and_insert (t : t) ~(now : float) (key : int) : bool =
  maybe_rotate t ~now;
  let h = mix key in
  let h1 = h1_of h and h2 = h2_of h in
  if seen t ~h1 ~h2 then false
  else begin
    set_all t ~h1 ~h2 0;
    t.inserted <- t.inserted + 1;
    true
  end

let memory_bytes (t : t) = 2 * (t.bits / 8)
let inserted_in_window (t : t) = t.inserted

(* Snapshot-time occupancy (observation-only, never on the per-packet
   path): population count over one filter generation. *)
let popcount_bytes (b : Bytes.t) : int =
  let n = ref 0 in
  for i = 0 to Bytes.length b - 1 do
    let c = ref (Char.code (Bytes.get b i)) in
    while !c <> 0 do
      c := !c land (!c - 1);
      incr n
    done
  done;
  !n

let bits_set (t : t) = popcount_bytes t.current + popcount_bytes t.previous

let fill_ratio (t : t) =
  float_of_int (popcount_bytes t.current) /. float_of_int t.bits
