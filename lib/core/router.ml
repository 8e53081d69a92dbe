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
    offenders. All of these have bounded memory independent of the
    number of flows. *)

open Colibri_types

type action =
  | Forward of Ids.iface (* next border router via this egress interface *)
  | Deliver of Ids.host (* last AS: hand to the destination host *)
  | To_cserv (* SegR (control) packets go to the local CServ *)

type drop_reason =
  | Parse_error of Packet.parse_error
  | Not_on_path
  | Expired_reservation
  | Stale_timestamp
  | Invalid_hvf
  | Blocked_source
  | Duplicate
  | Policed (* watched overuser exceeding its reservation *)

let pp_drop_reason ppf = function
  | Parse_error e -> Fmt.pf ppf "parse error: %a" Packet.pp_parse_error e
  | Not_on_path -> Fmt.string ppf "AS not on packet path"
  | Expired_reservation -> Fmt.string ppf "reservation expired"
  | Stale_timestamp -> Fmt.string ppf "stale timestamp"
  | Invalid_hvf -> Fmt.string ppf "invalid hop validation field"
  | Blocked_source -> Fmt.string ppf "blocked source AS"
  | Duplicate -> Fmt.string ppf "duplicate packet"
  | Policed -> Fmt.string ppf "policed (overuse)"

type stats = {
  mutable forwarded : int;
  mutable dropped : int;
  mutable suspects_flagged : int;
  mutable confirmed_overuse : int;
}

(* Stable label per drop reason; [drop_index] must agree with the order
   of [drop_labels]. *)
let drop_labels =
  [| "parse_error"; "not_on_path"; "expired_reservation"; "stale_timestamp";
     "invalid_hvf"; "blocked_source"; "duplicate"; "policed" |]

let drop_index = function
  | Parse_error _ -> 0
  | Not_on_path -> 1
  | Expired_reservation -> 2
  | Stale_timestamp -> 3
  | Invalid_hvf -> 4
  | Blocked_source -> 5
  | Duplicate -> 6
  | Policed -> 7

(* Pre-resolved counters: the per-packet path does an array index plus
   an allocation-free increment (DESIGN.md §7). *)
type metrics = {
  m_forwarded : Obs.Counter.t;
  m_dropped : Obs.Counter.t array; (* indexed by [drop_index] *)
  m_suspects : Obs.Counter.t;
  m_confirmed : Obs.Counter.t;
}

type t = {
  asn : Ids.asn;
  clock : Timebase.clock;
  secret : Hvf.as_secret; (* K_i, refreshed per epoch by the deployment *)
  freshness_window : Timebase.t;
  ofd : Monitor.Ofd.t option;
  duplicates : Monitor.Duplicate_filter.t option;
  blocklist : Monitor.Blocklist.t;
  watched : Monitor.Token_bucket.t Ids.Res_key_tbl.t;
      (* suspects under deterministic monitoring (§4.8) *)
  report : src:Ids.asn -> unit; (* confirmed-overuse report to the CServ *)
  auto_block : bool;
  confirm_after_drops : int; (* policed drops before overuse is "confirmed" *)
  drop_counts : int Ids.Res_key_tbl.t;
  stats : stats;
  registry : Obs.Registry.t;
  metrics : metrics;
  (* Per-router scratch for the zero-copy fast path (DESIGN.md §8):
     the packet view and the MAC working buffers are reused across
     packets, so a warmed-up [process_bytes] does not allocate. *)
  view : Packet.View.t;
  hscr : Hvf.scratch;
}

(** [create ~secret ~clock asn] builds a border router. [ofd] and
    [duplicates] default to enabled with modest footprints; pass
    [~ofd:None] / [~duplicates:None] to measure the bare fast path as
    the paper does for the duplicate-suppression system (§7.1). *)
let create ?(freshness_window = 2.0 +. Timebase.max_skew)
    ?ofd:(ofd_arg = `Default) ?duplicates:(dup_arg = `Default)
    ?(report = fun ~src:_ -> ()) ?(auto_block = false) ?(confirm_after_drops = 100)
    ?(registry = Obs.Registry.create ()) ~(secret : Hvf.as_secret)
    ~(clock : Timebase.clock) (asn : Ids.asn) : t =
  (* A private copy: the key's working blocks must not be shared across
     domains, and routers run on worker domains
     ([Dataplane_shard.Parallel_router] hands every worker the same
     secret). Copied first: taken after the router's other
     allocations, it measured 2-8 % slower in bench/perf's [pipeline]
     workload on a 2-vCPU host. *)
  let secret = Crypto.Cmac.copy secret in
  let now = clock () in
  let ofd =
    match ofd_arg with
    | `Default -> Some (Monitor.Ofd.create ~window:1.0 ~threshold:1.2 ~now ())
    | `None -> None
    | `Custom o -> Some o
  in
  let duplicates =
    match dup_arg with
    | `Default ->
        Some
          (Monitor.Duplicate_filter.create ~expected:1_000_000 ~fp_rate:1e-4
             ~window:(2.0 +. Timebase.max_skew) ~now)
    | `None -> None
    | `Custom d -> Some d
  in
  let metrics =
    {
      m_forwarded = Obs.Registry.counter registry "router_forwarded_total";
      m_dropped =
        Array.map
          (fun reason ->
            Obs.Registry.counter registry
              (Obs.labeled "router_dropped_total" [ ("reason", reason) ]))
          drop_labels;
      m_suspects = Obs.Registry.counter registry "router_suspects_flagged_total";
      m_confirmed = Obs.Registry.counter registry "router_confirmed_overuse_total";
    }
  in
  let t =
    {
      asn;
      clock;
      secret;
      freshness_window;
      ofd;
      duplicates;
      blocklist = Monitor.Blocklist.create ~clock ();
      watched = Ids.Res_key_tbl.create 64;
      report;
      auto_block;
      confirm_after_drops;
      drop_counts = Ids.Res_key_tbl.create 64;
      stats =
        { forwarded = 0; dropped = 0; suspects_flagged = 0; confirmed_overuse = 0 };
      registry;
      metrics;
      view = Packet.View.create ();
      hscr = Hvf.scratch ();
    }
  in
  (* Occupancy gauges (§4.8 monitors), sampled only at snapshot time;
     every read below is observation-only by the DESIGN.md §7 contract. *)
  Obs.Registry.gauge_fn registry "router_watched_flows" (fun () ->
      float_of_int (Ids.Res_key_tbl.length t.watched));
  Obs.Registry.gauge_fn registry "router_blocklist_size" (fun () ->
      float_of_int (Monitor.Blocklist.size t.blocklist));
  Obs.Registry.gauge_fn registry "router_watched_tokens_available_bits" (fun () ->
      let now = t.clock () in
      Ids.Res_key_tbl.fold
        (fun _ bucket acc -> acc +. Monitor.Token_bucket.available_bits bucket ~now)
        t.watched 0.);
  Obs.Registry.gauge_fn registry "router_watched_tokens_capacity_bits" (fun () ->
      Ids.Res_key_tbl.fold
        (fun _ bucket acc -> acc +. Monitor.Token_bucket.capacity_bits bucket)
        t.watched 0.);
  (match t.duplicates with
  | None -> ()
  | Some f ->
      Obs.Registry.gauge_fn registry "router_dup_filter_bits_set" (fun () ->
          float_of_int (Monitor.Duplicate_filter.bits_set f));
      Obs.Registry.gauge_fn registry "router_dup_filter_fill_ratio" (fun () ->
          Monitor.Duplicate_filter.fill_ratio f);
      Obs.Registry.gauge_fn registry "router_dup_filter_inserted_window" (fun () ->
          float_of_int (Monitor.Duplicate_filter.inserted_in_window f)));
  (match t.ofd with
  | None -> ()
  | Some ofd ->
      Obs.Registry.gauge_fn registry "router_ofd_sketch_max_cell" (fun () ->
          Monitor.Ofd.max_cell ofd);
      Obs.Registry.gauge_fn registry "router_ofd_observed_packets" (fun () ->
          float_of_int (Monitor.Ofd.observed_packets ofd)));
  t

let blocklist (t : t) = t.blocklist
let stats (t : t) = t.stats
let metrics (t : t) = t.registry
let watched_count (t : t) = Ids.Res_key_tbl.length t.watched

(** Explicitly place a reservation under deterministic token-bucket
    monitoring at its reserved rate — the state a flagged suspect ends
    up in (§4.8). Table 2's phase 3 pre-installs this, exactly as the
    paper "simulate[s] a state where reservations 1 and 2 were flagged
    by the probabilistic flow monitor". *)
let watch (t : t) ~(key : Ids.res_key) ~(rate : Bandwidth.t) =
  Ids.Res_key_tbl.replace t.watched key
    (Monitor.Token_bucket.create ~rate ~burst:0.1 ~now:(t.clock ()))

(* Locate this AS's hop and its index on the packet path. *)
let own_hop (t : t) (path : Path.t) : (int * Path.hop) option =
  let rec go i = function
    | [] -> None
    | (h : Path.hop) :: rest ->
        if Ids.equal_asn h.asn t.asn then Some (i, h) else go (i + 1) rest
  in
  go 0 path

let confirm_overuse (t : t) ~(src : Ids.asn) =
  t.stats.confirmed_overuse <- t.stats.confirmed_overuse + 1;
  Obs.Counter.incr t.metrics.m_confirmed;
  if t.auto_block then Monitor.Blocklist.block t.blocklist src ~duration:None;
  t.report ~src

(* Deterministic policing of flagged suspects: limit the flow to its
   reserved bandwidth (Table 2, phase 3). True when the packet must be
   dropped; tracks the drop count that turns a suspect into confirmed
   overuse. Shared by the record-based and view-based paths. *)
let police (t : t) ~(now : Timebase.t) ~(key : Ids.res_key) ~(actual_size : int) :
    bool =
  match Ids.Res_key_tbl.find_opt t.watched key with
  | None -> false
  | Some bucket ->
      if Monitor.Token_bucket.admit bucket ~now ~bytes:actual_size then false
      else begin
        let drops =
          Option.value ~default:0 (Ids.Res_key_tbl.find_opt t.drop_counts key) + 1
        in
        Ids.Res_key_tbl.replace t.drop_counts key drops;
        if drops = t.confirm_after_drops then confirm_overuse t ~src:key.src_as;
        true
      end

(* Duplicate-filter key: the fields that make a packet unique (§4.3:
   SrcAS, ResId, Ts, plus the size its HVF covers), folded into 62 bits
   by odd multiplies and xorshifts over the unboxed ints. Shared by the
   record and the [View] path so both index the same Bloom positions;
   allocation-free, and not cryptographic: a collision costs one
   false-positive drop. *)
let dup_step h x =
  let h = (h lxor x) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

let dup_key ~isd ~num ~res_id ~ts ~size =
  dup_step (dup_step (dup_step (dup_step (dup_step 0 isd) num) res_id) ts) size
  land max_int

(** Validate and route one already-parsed packet whose true wire size
    is [actual_size] bytes. The HVF authenticates [PktSize], so a
    mismatch between declared and actual size fails validation. *)
let process (t : t) ~(packet : Packet.t) ~(actual_size : int) :
    (action, drop_reason) result =
  let now = t.clock () in
  let drop r =
    t.stats.dropped <- t.stats.dropped + 1;
    Obs.Counter.incr t.metrics.m_dropped.(drop_index r);
    Error r
  in
  let ri = packet.res_info in
  if Monitor.Blocklist.is_blocked t.blocklist ri.src_as then drop Blocked_source
  else begin
    match own_hop t packet.path with
    | None -> drop Not_on_path
    | Some (i, hop) ->
        (* Expiry: reservation must still be valid (± clock skew). *)
        if now > ri.exp_time +. Timebase.max_skew then drop Expired_reservation
        else begin
          (* Freshness: the timestamp must lie within the window that
             covers clock skew plus maximum forwarding delay. *)
          let sent = Timebase.Ts.to_time ~exp_time:ri.exp_time packet.ts in
          if Float.abs (now -. sent) > t.freshness_window then drop Stale_timestamp
          else begin
            (* HVF validation decides the packet class once; an EER
               packet without EERInfo cannot authenticate (EERInfo is
               part of the Eq. (4) MAC input), so the routing arms
               below never face a missing destination host. *)
            let checked =
              match packet.kind with
              | Packet.Seg ->
                  if
                    Hvf.equal_hvf packet.hvfs.(i)
                      (Hvf.seg_token t.secret ~res_info:ri ~hop)
                  then `Seg
                  else `Bad
              | Packet.Eer -> (
                  match packet.eer_info with
                  | None -> `Bad
                  | Some eer_info ->
                      let sigma =
                        Hvf.sigma_of_bytes
                          (Hvf.hop_auth t.secret ~res_info:ri ~eer_info ~hop)
                      in
                      if
                        Hvf.equal_hvf packet.hvfs.(i)
                          (Hvf.eer_hvf sigma ~ts:packet.ts ~pkt_size:actual_size)
                      then `Eer eer_info
                      else `Bad)
            in
            match checked with
            | `Bad -> drop Invalid_hvf
            | (`Seg | `Eer _) as cls ->
                let key = Packet.res_key packet in
                (* Replay suppression [32]: all copies of a seen packet
                   are discarded. *)
                let fresh =
                  match t.duplicates with
                  | None -> true
                  | Some f ->
                      Monitor.Duplicate_filter.check_and_insert f ~now
                        (dup_key ~isd:key.src_as.isd ~num:key.src_as.num
                           ~res_id:key.res_id
                           ~ts:(Timebase.Ts.to_int packet.ts)
                           ~size:actual_size)
                in
                if not fresh then drop Duplicate
                else if police t ~now ~key ~actual_size then drop Policed
                else begin
                  (* Probabilistic monitoring over all EER flows. *)
                  (match (cls, t.ofd) with
                  | `Eer _, Some ofd ->
                      (* The bandwidth as the wire carries it (clamped
                         and rounded, as [Gateway] encodes it), so both
                         paths feed the sketch the same normalized size. *)
                      let bw_bps =
                        int_of_float (Float.round (Bandwidth.to_bps (Bandwidth.clamp ri.bw)))
                      in
                      (match
                         Monitor.Ofd.observe ofd ~now ~isd:key.src_as.isd
                           ~num:key.src_as.num ~res_id:key.res_id
                           ~bits:(8 * actual_size) ~bw_bps
                       with
                      | `Suspect ->
                          t.stats.suspects_flagged <- t.stats.suspects_flagged + 1;
                          Obs.Counter.incr t.metrics.m_suspects;
                          if not (Ids.Res_key_tbl.mem t.watched key) then
                            Ids.Res_key_tbl.replace t.watched key
                              (Monitor.Token_bucket.create ~rate:ri.bw ~burst:0.1 ~now)
                      | `Ok -> ())
                  | _ -> ());
                  t.stats.forwarded <- t.stats.forwarded + 1;
                  Obs.Counter.incr t.metrics.m_forwarded;
                  match cls with
                  | `Seg -> Ok To_cserv
                  | `Eer eer_info ->
                      if hop.egress = Ids.local_iface then Ok (Deliver eer_info.dst_host)
                      else Ok (Forward hop.egress)
                end
          end
        end
  end

(* Own-hop scan directly on the view: index of this AS on the path, or
   -1. A loop over unboxed int accessors — no hop records, no list. *)
(* hot-path *)
let rec own_hop_view (v : Packet.View.t) ~(isd : int) ~(num : int) ~(hops : int)
    (i : int) : int =
  if i >= hops then -1
  else if Packet.View.hop_isd v i = isd && Packet.View.hop_num v i = num then i
  else own_hop_view v ~isd ~num ~hops (i + 1)

(* The validation pipeline of [process], re-expressed over the parsed
   view: blocklist → own-hop scan → expiry → freshness → HVF →
   monitors → route. Same checks, same order, same drop accounting —
   but field reads are unboxed, MACs run in the per-router scratch, and
   monitor-state lookups that need key records are gated on occupancy,
   so a valid SegR packet on a bare router allocates nothing at all
   (the zero-minor-words regression test holds this). *)
(* hot-path *)
let process_view (t : t) ~(actual_size : int) : (action, drop_reason) result =
  let v = t.view in
  let now = t.clock () in
  let drop r =
    t.stats.dropped <- t.stats.dropped + 1;
    Obs.Counter.incr t.metrics.m_dropped.(drop_index r);
    Error r
  in
  if
    Monitor.Blocklist.size t.blocklist > 0
    && Monitor.Blocklist.is_blocked t.blocklist
         (Ids.asn ~isd:(Packet.View.src_isd v) ~num:(Packet.View.src_num v))
  then drop Blocked_source
  else begin
    let hops = Packet.View.hops v in
    let i = own_hop_view v ~isd:t.asn.isd ~num:t.asn.num ~hops 0 in
    if i < 0 then drop Not_on_path
    else begin
      (* Expiry: reservation must still be valid (± clock skew). The
         float fields are recovered from the raw µs/bps integers, which
         agrees with the boxed decode for any value a gateway can emit
         (see Packet.View.exp_time_us). *)
      let exp_time = float_of_int (Packet.View.exp_time_us v) /. 1e6 in
      if now > exp_time +. Timebase.max_skew then drop Expired_reservation
      else begin
        (* Freshness: the timestamp must lie within the window that
           covers clock skew plus maximum forwarding delay. *)
        let sent =
          exp_time -. (float_of_int (Timebase.Ts.to_int (Packet.View.ts v)) /. 1e6)
        in
        if Float.abs (now -. sent) > t.freshness_window then drop Stale_timestamp
        else begin
          let is_eer =
            match Packet.View.kind v with Packet.Eer -> true | Packet.Seg -> false
          in
          let hvf_ok =
            if is_eer then
              Hvf.eer_check t.secret t.hscr v ~hop:i ~pkt_size:actual_size
            else Hvf.seg_check t.secret t.hscr v ~hop:i
          in
          if not hvf_ok then drop Invalid_hvf
          else begin
            (* Replay suppression [32]: all copies of a seen packet are
               discarded. [dup_key] over the same fields as the
               record-based path, so both paths index the same Bloom
               positions for the same packet. *)
            let fresh =
              match t.duplicates with
              | None -> true
              | Some f ->
                  Monitor.Duplicate_filter.check_and_insert f ~now
                    (dup_key ~isd:(Packet.View.src_isd v)
                       ~num:(Packet.View.src_num v) ~res_id:(Packet.View.res_id v)
                       ~ts:(Timebase.Ts.to_int (Packet.View.ts v))
                       ~size:actual_size)
            in
            if not fresh then drop Duplicate
            else begin
              let policed =
                Ids.Res_key_tbl.length t.watched > 0
                &&
                let key : Ids.res_key =
                  {
                    src_as =
                      Ids.asn ~isd:(Packet.View.src_isd v)
                        ~num:(Packet.View.src_num v);
                    res_id = Packet.View.res_id v;
                  }
                in
                police t ~now ~key ~actual_size
              in
              if policed then drop Policed
              else begin
                (* Probabilistic monitoring over all EER flows. *)
                (match t.ofd with
                | Some ofd when is_eer ->
                    let isd = Packet.View.src_isd v and num = Packet.View.src_num v in
                    let res_id = Packet.View.res_id v in
                    let bw_bps = Packet.View.bw_bps_int v in
                    (match
                       Monitor.Ofd.observe ofd ~now ~isd ~num ~res_id
                         ~bits:(8 * actual_size) ~bw_bps
                     with
                    | `Suspect ->
                        t.stats.suspects_flagged <- t.stats.suspects_flagged + 1;
                        Obs.Counter.incr t.metrics.m_suspects;
                        let key : Ids.res_key =
                          { src_as = Ids.asn ~isd ~num; res_id }
                        in
                        if not (Ids.Res_key_tbl.mem t.watched key) then
                          Ids.Res_key_tbl.replace t.watched key
                            (Monitor.Token_bucket.create
                               ~rate:(Bandwidth.of_bps (float_of_int bw_bps))
                               ~burst:0.1 ~now)
                    | `Ok -> ())
                | _ -> ());
                t.stats.forwarded <- t.stats.forwarded + 1;
                Obs.Counter.incr t.metrics.m_forwarded;
                if not is_eer then Ok To_cserv
                else begin
                  let egress = Packet.View.hop_egress v i in
                  if egress = Ids.local_iface then
                    Ok (Deliver (Ids.host (Packet.View.eer_dst_addr v)))
                  else Ok (Forward egress)
                end
              end
            end
          end
        end
      end
    end
  end

(** Full fast path from raw bytes: parse, validate, route — what a
    border router actually executes per packet (§7.1 measures this
    end-to-end, "including header updates"). Validation runs directly
    on the router's reusable {!Packet.View}; after warm-up a valid
    SegR packet is processed with zero minor-heap allocation. *)
(* hot-path *)
let process_bytes (t : t) ~(raw : bytes) ~(payload_len : int) :
    (action, drop_reason) result =
  match Packet.View.parse t.view raw with
  | Error e ->
      t.stats.dropped <- t.stats.dropped + 1;
      Obs.Counter.incr t.metrics.m_dropped.(drop_index (Parse_error e));
      Error (Parse_error e)
  | Ok () -> process_view t ~actual_size:(Bytes.length raw + payload_len)
