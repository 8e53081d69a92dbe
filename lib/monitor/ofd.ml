(** Probabilistic overuse-flow detector (§4.8, LOFT-style [44, 64]).

    Transit and transfer ASes see far too many EERs for per-flow state,
    so overuse detection runs on a count-min sketch with a fixed memory
    footprint. Per packet, the OFD receives the flow label
    [(SrcAS, ResId)] and the {e normalized packet size}

    {v normalized = packet size in bits / reservation bandwidth v}

    i.e. the number of seconds of reservation time the packet consumes.
    Packets of all versions of an EER share a flow label, which makes a
    sender using multiple versions accountable for the {e maximum}
    bandwidth across versions, not the sum (§4.8). Over a measurement
    window of [window] seconds, a conforming flow accumulates at most
    [window] (plus burst slack) normalized usage; flows whose sketch
    estimate exceeds [threshold × window] are reported as suspects.

    The sketch never under-estimates, so within a window there are no
    false negatives for flows exceeding the threshold; hash collisions
    can cause false positives — which is why the paper escalates
    suspects to exact, deterministic monitoring rather than punishing
    them directly. *)

open Colibri_types

type t = {
  width : int;
  depth : int;
  window : float; (* seconds per measurement window *)
  threshold : float; (* multiple of the fair share that flags a suspect *)
  rows : float array array; (* depth × width counters, normalized seconds *)
  seeds : int array;
  mutable window_start : float;
  mutable suspects : unit Ids.Res_key_tbl.t; (* flagged in current window *)
  mutable observed_packets : int;
}

let create ?(width = 4096) ?(depth = 4) ~(window : float) ~(threshold : float)
    ~(now : float) () : t =
  if width <= 0 || depth <= 0 || window <= 0. || threshold <= 0. then
    (* Construction-time validation; never on the per-packet path. *)
    (* lint: allow hot-path-exn *)
    invalid_arg "Ofd.create";
  {
    width;
    depth;
    window;
    threshold;
    rows = Array.make_matrix depth width 0.;
    seeds = Array.init depth (fun i -> 0x9e3779b9 + (i * 0x61c88647));
    window_start = now;
    suspects = Ids.Res_key_tbl.create 16;
    observed_packets = 0;
  }

let maybe_rotate (t : t) ~now =
  if now -. t.window_start >= t.window then begin
    (* A [for] loop, not [Array.iter f]: rotation is reached from every
       [observe], and the closure for [f] would allocate each call. *)
    for r = 0 to Array.length t.rows - 1 do
      Array.fill t.rows.(r) 0 t.width 0.
    done;
    Ids.Res_key_tbl.reset t.suspects;
    t.window_start <- now;
    t.observed_packets <- 0
  end

(* Count-min indexing needs a fast non-cryptographic spread, not
   authentication: a collision only inflates an estimate (a false
   suspect escalated to exact monitoring), never hides overuse. The
   spread is OCaml's [Hashtbl.hash] of the 4-tuple
   [(isd, num, res_id, seed)], computed from the unboxed fields: a port
   of [caml_hash], which MurmurHash3-mixes the tuple's header word and
   then each tagged int. [mix] works on 32-bit values held in an
   OCaml int; the low 32 bits of a 63-bit product are exact. *)
let[@inline] mix h d =
  let d = (d * 0xcc9e2d51) land 0xffffffff in
  let d = ((d lsl 15) lor (d lsr 17)) land 0xffffffff in
  let d = (d * 0x1b873593) land 0xffffffff in
  let h = h lxor d in
  let h = ((h lsl 13) lor (h lsr 19)) land 0xffffffff in
  ((h * 5) + 0xe6546b64) land 0xffffffff

(* [caml_hash_mix_intnat] of the tagged int [2n+1] as a 64-bit word:
   it folds the high half and the sign into the low 32 bits, so that
   ints in [-2^31, 2^31) hash as they do on a 32-bit host. *)
let[@inline] mix_int h n = mix h ((n asr 31) lxor (n asr 62) lxor ((n lsl 1) lor 1))

let hash4 a b c d =
  (* Header word of a 4-field block with tag 0: [4 lsl 10]. *)
  let h = mix_int (mix_int (mix_int (mix_int (mix 0 (4 lsl 10)) a) b) c) d in
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land 0xffffffff in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land 0xffffffff in
  (h lxor (h lsr 16)) land 0x3fffffff

let[@inline] slot (t : t) ~isd ~num ~res_id row =
  hash4 isd num res_id t.seeds.(row) mod t.width

(** Current sketch estimate (normalized seconds in this window) for a
    flow: the minimum across rows, the classic count-min bound. *)
let estimate (t : t) (key : Ids.res_key) : float =
  let est = ref Float.max_float in
  for row = 0 to t.depth - 1 do
    let i = slot t ~isd:key.src_as.isd ~num:key.src_as.num ~res_id:key.res_id row in
    est := Float.min !est t.rows.(row).(i)
  done;
  !est

(** [observe t ~now ~isd ~num ~res_id ~bits ~bw_bps] accounts one
    packet of [bits] bits on flow [(isd-num, res_id)], reserved at
    [bw_bps], and reports whether the flow's estimated usage now
    exceeds the overuse threshold. A flow is reported as suspect at
    most once per window. Each row's slot is hashed once, and the
    estimate is the minimum of the cells just updated. Apart from the
    already boxed [now], the arguments are immediates, so nothing is
    boxed on the way in, and a flow key is built only once the
    estimate crosses the threshold. *)
let observe (t : t) ~(now : float) ~isd ~num ~res_id ~bits ~bw_bps :
    [ `Ok | `Suspect ] =
  maybe_rotate t ~now;
  (* Per-packet path: must not raise. A negative normalized size cannot
     come from a well-formed packet (sizes and reserved bandwidths are
     positive); clamp defensively instead of trusting the caller. *)
  let normalized = Float.max 0. (float_of_int bits /. float_of_int bw_bps) in
  t.observed_packets <- t.observed_packets + 1;
  let est = ref Float.max_float in
  for row = 0 to t.depth - 1 do
    let cells = t.rows.(row) and i = slot t ~isd ~num ~res_id row in
    let v = cells.(i) +. normalized in
    cells.(i) <- v;
    est := Float.min !est v
  done;
  if !est > t.threshold *. t.window then begin
    let key : Ids.res_key = { src_as = Ids.asn ~isd ~num; res_id } in
    if Ids.Res_key_tbl.mem t.suspects key then `Ok
    else begin
      Ids.Res_key_tbl.replace t.suspects key ();
      `Suspect
    end
  end
  else `Ok

let suspects (t : t) : Ids.res_key list =
  Ids.Res_key_tbl.fold (fun k () acc -> k :: acc) t.suspects []

let memory_bytes (t : t) = t.depth * t.width * 8
let observed_packets (t : t) = t.observed_packets
let window (t : t) = t.window
let threshold (t : t) = t.threshold

(* Snapshot-time saturation probe (observation-only): the largest cell
   of the sketch. A max cell near [threshold × window] means hash
   collisions alone can start flagging false suspects. *)
let max_cell (t : t) : float =
  let m = ref 0. in
  for row = 0 to t.depth - 1 do
    for i = 0 to t.width - 1 do
      if t.rows.(row).(i) > !m then m := t.rows.(row).(i)
    done
  done;
  !m
