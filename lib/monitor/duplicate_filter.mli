(** In-network replay suppression (§2.3, [32]).

    Discards copies of already-seen packets — identified by their
    unique (SrcAS, ResId, ExpT, Ts) tuple (§4.3) — with bounded
    memory: two alternating Bloom filters cover a sliding window of
    [2 × window] seconds, enough because older packets fail the
    router's freshness check anyway. False positives drop a legitimate
    packet (bounded by [fp_rate]); replays inside the window are
    always caught. *)

type t

val create : expected:int -> fp_rate:float -> window:float -> now:float -> t
(** Size the filters for [expected] packets per [window] seconds at
    false-positive rate [fp_rate]. *)

val check_and_insert : t -> now:float -> int -> bool
(** [true] when the key is fresh (first sighting in the window), which
    also records it; [false] flags a duplicate to be discarded. Keys
    need not be well spread: the filter mixes each key itself, so small
    or sequential ints index as well as random ones. *)

val mem : t -> int -> bool
(** [mem t key] is [true] when [key] is in either generation, i.e. when
    {!check_and_insert} would flag it now (before any rotation).
    Observation-only: records nothing, so a test can measure the
    false-positive rate without the probes filling the filter. *)

val memory_bytes : t -> int
val inserted_in_window : t -> int

val bits_set : t -> int
(** Bloom occupancy across both generations — the telemetry gauge the
    router exports. Observation-only: never mutates the filter. *)

val fill_ratio : t -> float
(** Fraction of the current generation's bits that are set; the
    false-positive rate grows as this approaches the design point. *)
