(** Probabilistic overuse-flow detector (§4.8, LOFT-style [44, 64]).

    Transit and transfer ASes see too many EERs for per-flow state, so
    overuse detection runs on a count-min sketch with a fixed memory
    footprint. Per packet the OFD receives the flow label
    [(SrcAS, ResId)] and the {e normalized packet size} (packet bits /
    reservation bandwidth — seconds of reservation time consumed).
    Flows whose windowed estimate exceeds [threshold × window] are
    reported as suspects, to be escalated to exact deterministic
    monitoring. The sketch never under-estimates, so heavy flows are
    always flagged within their window; collisions can cause false
    positives — which is why suspects are verified, not punished. *)

open Colibri_types

type t

val create :
  ?width:int -> ?depth:int -> window:float -> threshold:float -> now:float -> unit -> t

val observe :
  t ->
  now:float ->
  isd:Ids.isd ->
  num:int ->
  res_id:Ids.res_id ->
  bits:int ->
  bw_bps:int ->
  [ `Ok | `Suspect ]
(** Account one packet of [bits] bits on the flow [(isd-num, res_id)]
    reserved at [bw_bps]: its normalized size is [bits / bw_bps].
    [`Suspect] is reported at most once per flow per window. The
    arguments after [now] are immediates, so the wire path neither
    builds a flow key nor boxes a float to call this. *)

val estimate : t -> Ids.res_key -> float
(** Current sketch estimate (normalized seconds this window): the
    count-min upper bound. *)

val suspects : t -> Ids.res_key list
(** Flows flagged in the current window. *)

val hash4 : int -> int -> int -> int -> int
(** [hash4 a b c d = Hashtbl.hash (a, b, c, d)], computed without
    building the tuple: the sketch's slot function. *)

val memory_bytes : t -> int
val observed_packets : t -> int
val window : t -> float
val threshold : t -> float

val max_cell : t -> float
(** Largest cell of the sketch this window — the saturation gauge the
    router exports. Observation-only: never mutates the sketch. *)
