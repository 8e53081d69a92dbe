(** The Colibri gateway (§3.2, §4.6): the mandatory exit point for all
    Colibri EER traffic of an AS's end hosts.

    Per outgoing packet the gateway (i) maps the [ResId] to the
    reservation state obtained during setup/renewal — path, ResInfo,
    EERInfo and the hop authenticators σ_i; (ii) performs deterministic
    traffic monitoring with a per-EER token bucket (§4.8), dropping
    packets beyond the reserved rate; (iii) stamps a high-precision
    timestamp and computes the per-hop validation fields
    [V_i = MAC_{σ_i}(Ts ‖ PktSize)] (Eq. (6)) — thereby certifying that
    the mandatory monitoring was performed and the packet is
    authorized.

    The gateway is the only stateful data-plane component, and its
    state is bounded by the number of EERs {e originating} in its own
    AS — never by transit traffic. *)

open Colibri_types

type version_state = {
  version : Reservation.version;
  res_info : Packet.res_info;
  sigmas : Hvf.sigma array; (* one per on-path AS, path order *)
  mutable last_ts : int;
      (* Ts is relative to this version's ExpT and decreases over
         time; enforcing strict decrease per version keeps every
         packet's (source, Ts) pair unique even when several packets
         leave within one clock tick — required for duplicate
         suppression (§4.3). Tracked per version because a renewal
         moves ExpT and restarts the countdown. *)
}

type entry = {
  eer : Reservation.eer;
  eer_info : Packet.eer_info;
  mutable versions : version_state list; (* newest first *)
  mutable bucket : Monitor.Token_bucket.t;
}

type drop_reason = Unknown_reservation | Expired | Rate_exceeded

let pp_drop_reason ppf = function
  | Unknown_reservation -> Fmt.string ppf "unknown reservation"
  | Expired -> Fmt.string ppf "reservation expired"
  | Rate_exceeded -> Fmt.string ppf "rate exceeded"

type stats = {
  mutable sent_pkts : int;
  mutable sent_bytes : int;
  mutable dropped_rate : int;
  mutable dropped_other : int;
}

(* Pre-resolved counters so the per-packet path is a field read plus an
   allocation-free increment (DESIGN.md §7). *)
type metrics = {
  m_sent_pkts : Obs.Counter.t;
  m_sent_bytes : Obs.Counter.t;
  m_drop_unknown : Obs.Counter.t;
  m_drop_expired : Obs.Counter.t;
  m_drop_rate : Obs.Counter.t;
  m_pkt_size : Obs.Histogram.t;
}

type t = {
  asn : Ids.asn;
  clock : Timebase.clock;
  burst : float; (* token-bucket burst allowance, seconds at rate *)
  entries : (int, entry) Hashtbl.t; (* by ResId: reservations of own AS only *)
  stats : stats;
  registry : Obs.Registry.t;
  metrics : metrics;
  (* Reusable output buffer and MAC scratch for {!send_bytes}
     (DESIGN.md §8): the header is encoded in place, so the steady
     state allocates no per-packet buffers. *)
  mutable out : bytes;
  mutable out_len : int;
  hscr : Hvf.scratch;
}

let drop_counter (registry : Obs.Registry.t) (reason : string) : Obs.Counter.t =
  Obs.Registry.counter registry
    (Obs.labeled "gateway_dropped_total" [ ("reason", reason) ])

let create ?(burst = 0.1) ?(registry = Obs.Registry.create ())
    ~(clock : Timebase.clock) (asn : Ids.asn) : t =
  let entries = Hashtbl.create 4096 in
  let metrics =
    {
      m_sent_pkts = Obs.Registry.counter registry "gateway_sent_packets_total";
      m_sent_bytes = Obs.Registry.counter registry "gateway_sent_bytes_total";
      m_drop_unknown = drop_counter registry "unknown_reservation";
      m_drop_expired = drop_counter registry "expired";
      m_drop_rate = drop_counter registry "rate_exceeded";
      m_pkt_size = Obs.Registry.histogram registry "gateway_packet_bytes";
    }
  in
  Obs.Registry.gauge_fn registry "gateway_reservations" (fun () ->
      float_of_int (Hashtbl.length entries));
  { asn; clock; burst; entries;
    stats = { sent_pkts = 0; sent_bytes = 0; dropped_rate = 0; dropped_other = 0 };
    registry; metrics;
    out = Bytes.create 512; out_len = 0; hscr = Hvf.scratch () }

let metrics (t : t) = t.registry

(* The σ count must match the path and the EER must originate here. *)
let check (t : t) ~(eer : Reservation.eer) ~(n_sigmas : int) : (unit, string) result =
  if not (Ids.equal_asn eer.key.src_as t.asn) then Error "EER does not originate here"
  else if n_sigmas <> Path.length eer.path then Error "wrong number of sigmas"
  else Ok ()

(* The one install body of {!register} and {!register_prepared}: a new
   version goes in front, lapsed ones are dropped, and the token-bucket
   rate follows the maximum bandwidth over valid versions. *)
let install (t : t) ~(eer : Reservation.eer) ~(version : Reservation.version)
    ~(sigmas : Hvf.sigma array) =
  let now = t.clock () in
  let vs =
    { version; res_info = Reservation.res_info_of_eer eer version; sigmas; last_ts = max_int }
  in
  match Hashtbl.find_opt t.entries eer.key.res_id with
  | Some e ->
      e.versions <-
        vs :: List.filter (fun v -> Reservation.version_valid v.version ~now) e.versions;
      Monitor.Token_bucket.set_rate e.bucket ~rate:(Reservation.eer_bw eer ~now) ~now
  | None ->
      Hashtbl.replace t.entries eer.key.res_id
        {
          eer;
          eer_info = Reservation.eer_info_of_eer eer;
          versions = [ vs ];
          bucket = Monitor.Token_bucket.create ~rate:version.bw ~burst:t.burst ~now;
        }

(** Install or extend an EER after a successful setup or renewal
    (➎ in Fig. 1b): the σ_i of the new version are expanded into CMAC
    keys once. *)
let register (t : t) ~(eer : Reservation.eer) ~(version : Reservation.version)
    ~(sigmas : bytes list) : (unit, string) result =
  check t ~eer ~n_sigmas:(List.length sigmas)
  |> Result.map (fun () ->
         install t ~eer ~version
           ~sigmas:(Array.of_list (List.map Hvf.sigma_of_bytes sigmas)))

(** {!register} with already-expanded σ keys; used by benchmarks to
    preload up to 2^20 reservations (Fig. 5) without re-running the
    CMAC key schedule per entry. *)
let register_prepared (t : t) ~(eer : Reservation.eer)
    ~(version : Reservation.version) ~(sigmas : Hvf.sigma array) :
    (unit, string) result =
  check t ~eer ~n_sigmas:(Array.length sigmas)
  |> Result.map (fun () -> install t ~eer ~version ~sigmas)

(** Expire an entry explicitly (e.g. periodic sweep); entries whose
    versions have all lapsed are also dropped lazily on use. *)
let sweep (t : t) =
  let now = t.clock () in
  let stale =
    Hashtbl.fold
      (fun id e acc ->
        if List.for_all (fun v -> not (Reservation.version_valid v.version ~now)) e.versions
        then id :: acc
        else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) stale

(* -- Zero-copy emission (DESIGN.md §8) -- *)

(* First version still valid at [now], newest first, as a plain
   recursion (no closure). *)
(* hot-path *)
let rec first_valid_version ~(now : Timebase.t) (versions : version_state list) :
    version_state option =
  match versions with
  | [] -> None
  | vs :: rest ->
      if Reservation.version_valid vs.version ~now then Some vs
      else first_valid_version ~now rest

(* Encode the path hops at [off], 20 bytes per hop, byte-identical to
   [Path.to_bytes]. *)
(* hot-path *)
let rec write_hops (b : bytes) (off : int) (hops : Path.hop list) =
  match hops with
  | [] -> ()
  | h :: rest ->
      Packet.Wire.put32 b off h.asn.isd;
      Packet.Wire.put32 b (off + 4) h.asn.num;
      Packet.Wire.put32 b (off + 8) h.ingress;
      Packet.Wire.put32 b (off + 12) h.egress;
      Packet.Wire.put32 b (off + 16) 0;
      write_hops b (off + 20) rest

(* HVF fields at [off], one per σ, via the allocation-free Eq. (6). *)
(* hot-path *)
let write_hvfs (t : t) (vs : version_state) ~(ts : Timebase.Ts.t)
    ~(pkt_size : int) (off : int) =
  for i = 0 to Array.length vs.sigmas - 1 do
    Hvf.eer_hvf_into vs.sigmas.(i) t.hscr ~ts ~pkt_size ~dst:t.out
      ~dst_off:(off + (i * Packet.hvf_len))
  done

(** Process one packet from an end host: monitor, authorize, emit.
    [payload_len] is the payload size in bytes; the authenticated
    [PktSize] covers header plus payload so that header-only floods
    remain accountable (§4.8). The header is encoded straight into the
    gateway's reusable output buffer ({!out}, valid until the next
    [send_bytes] on this gateway) and the HVFs are computed in place.
    Returns the egress interface of the first hop. *)
(* hot-path *)
let send_bytes (t : t) ~(res_id : Ids.res_id) ~(payload_len : int) :
    (Ids.iface, drop_reason) result =
  let now = t.clock () in
  match Hashtbl.find_opt t.entries res_id with
  | None ->
      t.stats.dropped_other <- t.stats.dropped_other + 1;
      Obs.Counter.incr t.metrics.m_drop_unknown;
      Error Unknown_reservation
  | Some e -> (
      match first_valid_version ~now e.versions with
      | None ->
          Hashtbl.remove t.entries res_id;
          t.stats.dropped_other <- t.stats.dropped_other + 1;
          Obs.Counter.incr t.metrics.m_drop_expired;
          Error Expired
      | Some vs ->
          let hops = Path.length e.eer.path in
          let header = Packet.header_len ~hops in
          let pkt_size = header + payload_len in
          if not (Monitor.Token_bucket.admit e.bucket ~now ~bytes:pkt_size) then begin
            t.stats.dropped_rate <- t.stats.dropped_rate + 1;
            Obs.Counter.incr t.metrics.m_drop_rate;
            Error Rate_exceeded
          end
          else begin
            let ts =
              let computed =
                Timebase.Ts.to_int
                  (Timebase.Ts.of_times ~exp_time:vs.res_info.exp_time ~now)
              in
              let unique = if computed >= vs.last_ts then vs.last_ts - 1 else computed in
              vs.last_ts <- unique;
              Timebase.Ts.of_int unique
            in
            if Bytes.length t.out < header then
              (* Growth is amortized: only when a longer path than ever
                 before passes through this gateway. *)
              t.out <- (Bytes.create (max header (2 * Bytes.length t.out)) [@colibri.allow "d1"]);
            let b = t.out in
            Packet.Wire.put16 b 0 Packet.magic;
            Bytes.set_uint8 b 2 1 (* Eer *);
            Bytes.set_uint8 b 3 hops;
            Packet.Wire.put32 b 4 payload_len;
            Packet.Wire.put64 b 8 (Timebase.Ts.to_int ts);
            write_hops b Packet.fixed_header_len e.eer.path;
            let res_off = Packet.fixed_header_len + (hops * Path.hop_byte_size) in
            let ri = vs.res_info in
            Packet.Wire.put32 b res_off ri.src_as.isd;
            Packet.Wire.put32 b (res_off + 4) ri.src_as.num;
            Packet.Wire.put32 b (res_off + 8) ri.res_id;
            (* Clamp before float->int: bw/exp_time trace back to the
               wire, and [int_of_float] of an oversized float is
               unspecified (w4). *)
            Packet.Wire.put64 b (res_off + 12)
              (int_of_float (Float.round (Bandwidth.to_bps (Bandwidth.clamp ri.bw))));
            Packet.Wire.put64 b (res_off + 20)
              (Timebase.Ts.us_of_time ri.exp_time);
            Packet.Wire.put32 b (res_off + 28) ri.version;
            let eer_off = res_off + Packet.res_info_len in
            Packet.Wire.put32 b eer_off e.eer_info.src_host.addr;
            Packet.Wire.put32 b (eer_off + 4) e.eer_info.dst_host.addr;
            write_hvfs t vs ~ts ~pkt_size (eer_off + Packet.eer_info_len);
            t.out_len <- header;
            t.stats.sent_pkts <- t.stats.sent_pkts + 1;
            t.stats.sent_bytes <- t.stats.sent_bytes + pkt_size;
            Obs.Counter.incr t.metrics.m_sent_pkts;
            Obs.Counter.add t.metrics.m_sent_bytes pkt_size;
            Obs.Histogram.observe t.metrics.m_pkt_size (float_of_int pkt_size);
            let egress =
              match e.eer.path with
              | first :: _ -> first.egress
              | [] -> Ids.local_iface
            in
            Ok egress
          end)

let out (t : t) = t.out
let out_len (t : t) = t.out_len

let reservation_count (t : t) = Hashtbl.length t.entries
let stats (t : t) = t.stats
