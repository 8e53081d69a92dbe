(** The Colibri gateway (§3.2, §4.6): the mandatory exit point for all
    Colibri EER traffic of an AS's end hosts.

    Per outgoing packet the gateway (i) maps the [ResId] to the
    reservation state obtained during setup/renewal — path, ResInfo,
    EERInfo and the hop authenticators σ_i; (ii) performs deterministic
    traffic monitoring with a per-EER token bucket (§4.8), dropping
    packets beyond the reserved rate; (iii) stamps a high-precision
    timestamp and computes the per-hop validation fields of Eq. (6) —
    thereby certifying that the mandatory monitoring was performed and
    the packet is authorized.

    The gateway is the only stateful data-plane component, and its
    state is bounded by the number of EERs {e originating} in its own
    AS — never by transit traffic. *)

open Colibri_types

type t

type drop_reason = Unknown_reservation | Expired | Rate_exceeded

val pp_drop_reason : drop_reason Fmt.t

type stats = {
  mutable sent_pkts : int;
  mutable sent_bytes : int;
  mutable dropped_rate : int;
  mutable dropped_other : int;
}

val create :
  ?burst:float -> ?registry:Obs.Registry.t -> clock:Timebase.clock -> Ids.asn -> t
(** [burst] is the token-bucket burst allowance in seconds at the
    reserved rate (default 0.1). [registry] receives the gateway's
    drop-accounting metrics (DESIGN.md §7); a private registry is
    created when omitted. *)

val register :
  t ->
  eer:Reservation.eer ->
  version:Reservation.version ->
  sigmas:bytes list ->
  (unit, string) result
(** Install or extend an EER after a successful setup or renewal
    (➎ in Fig. 1b): the σ_i of the new version are expanded into CMAC
    keys once, versions that have lapsed are dropped, and the
    token-bucket rate follows the maximum bandwidth over valid
    versions. *)

val register_prepared :
  t ->
  eer:Reservation.eer ->
  version:Reservation.version ->
  sigmas:Hvf.sigma array ->
  (unit, string) result
(** {!register} taking already-expanded σ keys; used by benchmarks to
    preload up to 2^20 reservations (Fig. 5) without re-running the
    CMAC key schedule per entry. *)

val sweep : t -> unit
(** Drop entries whose versions have all lapsed (also happens lazily
    on use). *)

val send_bytes :
  t -> res_id:Ids.res_id -> payload_len:int -> (Ids.iface, drop_reason) result
(** Process one packet from an end host: monitor, authorize, emit —
    the gateway's one per-packet path. The authenticated [PktSize]
    covers header plus payload, so header-only floods remain
    accountable (§4.8). On [Ok] the finished wire header is in {!out}
    for {!out_len} bytes, encoded in place, HVFs included (DESIGN.md
    §8); it is valid only until the next
    [send_bytes] on this gateway, so a caller that keeps the packet
    copies it with [Bytes.sub (out g) 0 (out_len g)]. Returns the
    egress interface of the first hop. *)

val out : t -> bytes
(** The reusable output buffer of the last successful {!send_bytes};
    only the first {!out_len} bytes are meaningful. *)

val out_len : t -> int

val reservation_count : t -> int
val stats : t -> stats

val metrics : t -> Obs.Registry.t
(** The gateway's metric registry: [gateway_sent_packets_total],
    [gateway_sent_bytes_total], [gateway_dropped_total{reason=...}]
    (one counter per {!drop_reason}), the [gateway_packet_bytes] size
    histogram, and a [gateway_reservations] occupancy gauge. *)
