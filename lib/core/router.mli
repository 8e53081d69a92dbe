(** The Colibri border router (§4.6): per-packet validation and
    forwarding without any per-flow or per-reservation state.

    For each packet the router validates format, freshness, and
    reservation expiry, then recomputes the hop validation field from
    the single AS secret [K_i]: directly via Eq. (3) for SegR packets,
    or via the two-step Eq. (4) → Eq. (6) for EER packets. A matching
    HVF proves both that the source AS authorized the packet (and thus
    performed its monitoring duty) and that this AS admitted the
    reservation.

    The router also hosts the monitoring hooks of §4.8: the
    probabilistic overuse-flow detector over all EER flows, the
    deterministic token-bucket policing of flagged suspects, the
    duplicate-suppression filter, and the blocklist of confirmed
    offenders — all with bounded memory independent of the number of
    flows. *)

open Colibri_types

type t

(** Where a validated packet goes next. *)
type action =
  | Forward of Ids.iface  (** next border router via this egress *)
  | Deliver of Ids.host  (** last AS: hand to the destination host *)
  | To_cserv  (** SegR (control) packets go to the local CServ *)

type drop_reason =
  | Parse_error of Packet.parse_error
  | Not_on_path
  | Expired_reservation
  | Stale_timestamp
  | Invalid_hvf
  | Blocked_source
  | Duplicate
  | Policed  (** watched overuser exceeding its reservation *)

val pp_drop_reason : drop_reason Fmt.t

type stats = {
  mutable forwarded : int;
  mutable dropped : int;
  mutable suspects_flagged : int;
  mutable confirmed_overuse : int;
}

val create :
  ?freshness_window:Timebase.t ->
  ?ofd:[ `Default | `None | `Custom of Monitor.Ofd.t ] ->
  ?duplicates:[ `Default | `None | `Custom of Monitor.Duplicate_filter.t ] ->
  ?report:(src:Ids.asn -> unit) ->
  ?auto_block:bool ->
  ?confirm_after_drops:int ->
  ?registry:Obs.Registry.t ->
  secret:Hvf.as_secret ->
  clock:Timebase.clock ->
  Ids.asn ->
  t
(** [ofd] and [duplicates] default to enabled with modest footprints;
    pass [`None] to measure the bare fast path as the paper does for
    the duplicate-suppression system (§7.1). [report] receives
    confirmed-overuse notifications (typically wired to
    {!Cserv.report_misbehavior}); with [auto_block] the offender is
    also blocklisted locally. [registry] receives the router's
    drop-accounting metrics (DESIGN.md §7); a private registry is
    created when omitted. *)

val blocklist : t -> Monitor.Blocklist.t
val stats : t -> stats
val watched_count : t -> int

val metrics : t -> Obs.Registry.t
(** The router's metric registry: [router_forwarded_total],
    [router_dropped_total{reason=...}] (one counter per
    {!drop_reason}), suspect/overuse counters, and occupancy gauges
    over the §4.8 monitors (duplicate-filter bits set and fill ratio,
    OFD sketch saturation, watched-flow token fill, blocklist size).
    Gauges are sampled only at snapshot time and never mutate monitor
    state. *)

val watch : t -> key:Ids.res_key -> rate:Bandwidth.t -> unit
(** Explicitly place a reservation under deterministic token-bucket
    monitoring at its reserved rate — the state a flagged suspect ends
    up in (§4.8); Table 2's phase 3 pre-installs this. *)

val process_bytes : t -> raw:bytes -> payload_len:int -> (action, drop_reason) result
(** Parse, validate and route one packet whose header is [raw] and
    whose payload is [payload_len] bytes — the router's one per-packet
    path, what a border router executes per packet (§7.1 measures this
    end to end). The HVF authenticates [PktSize], so a [payload_len]
    that differs from the one the gateway stamped fails validation.
    Validation runs on the router's reusable {!Packet.View}: after
    warm-up a valid SegR packet allocates nothing. *)
