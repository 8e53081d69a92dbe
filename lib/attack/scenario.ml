(** The three paper-grounded DDoS scenarios, each runnable against any
    admission backend of the PR-8 registry (§5.1, SIBRA's adversary).

    + {b Admission exhaustion} ({!exhaustion}): N bot ASes funneled
      through one transfer AS spam SegR/EER setups. The claim under
      test is N-Tube fairness — honest ASes' admissible bandwidth
      stays bounded below (existing grants are never preempted and the
      capacity share bounds what bots can promise themselves), while a
      signalling-free discipline (DiffServ) oversubscribes and dilutes
      the honest share to nearly nothing.
    + {b Data-plane overuse} ({!overuse}): bots pay for a rate R and
      send kR through a rogue gateway that skips the source AS's
      monitoring duty. The claim: the transfer AS's OFD flags every
      overuser within one measurement window, policing clamps them,
      the blocklist quarantines them, and honest flows keep both their
      allocations and their deliveries.
    + {b Renewal-storm amplification} ({!storm}): crash/flap windows
      timed at the synchronized renewal instants force a retry storm.
      The claim: the PR-5 retry budgets bound total control messages
      by budget × requests — the protocol never self-amplifies into
      its own DDoS.

    Every runner is deterministic in [seed]: the same seed replays a
    byte-identical report digest (asserted by [test/attack]). *)

open Colibri_types
open Colibri_topology
open Colibri
module Backend = Backends.Backend_intf

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps

let ok where = function
  | Ok v -> v
  | Error e -> failwith (where ^ ": " ^ e)

let up_path db src =
  match Segments.Db.up_segments db ~src with
  | [] -> failwith "Scenario: leaf has no up segment"
  | s :: _ -> s.Segments.path

(* Read one counter out of a snapshot without [List.assoc] (the keyed
   lookup the deepscan d3 rule wants). Missing counters read 0. *)
let counter_value (snap : Obs.snapshot) (name : string) : int =
  let rec go = function
    | [] -> 0
    | (n, Obs.Counter v) :: _ when String.equal n name -> v
    | _ :: rest -> go rest
  in
  go snap

(* ------------------------------------------------------------------ *)
(* Scenario (a): admission exhaustion through a funnel.                *)
(* ------------------------------------------------------------------ *)

type exhaustion_report = {
  xh_backend : string;
  xh_bound_enforced : bool;
  xh_honest_bps : float;  (** Σ honest granted bandwidth after the attack *)
  xh_total_bps : float;  (** Σ promised on the contested trunk egress *)
  xh_share_bps : float;  (** the Colibri share of the trunk capacity *)
  xh_honest_share : float;  (** honest ∕ max(total, share) *)
  xh_honest_preserved : bool;  (** no honest grant shrank or vanished *)
  xh_capacity_respected : bool;  (** total ≤ share *)
  xh_bot_seg_attempts : int;
  xh_bot_seg_granted : int;
  xh_bot_eer_attempts : int;
  xh_bot_eer_granted : int;
  xh_digest : string;
}

let exhaustion ~(seed : int) ~(backend : Backend.factory) : exhaustion_report =
  let bots_n = 24 and honest_n = 4 in
  let trunk = gbps 10. in
  let topo =
    Topology_gen.funnel ~bots:bots_n ~honest:honest_n ~leaf_capacity:(gbps 1.)
      ~trunk_capacity:trunk
  in
  let d = Deployment.create ~backend ~seed topo in
  let db = Deployment.seg_db d in
  let engine = Deployment.engine d in
  (* Honest preload: each victim books 750 Mbps up to the core before
     the attack — inside every backend's admissible region (N-Tube
     would counter-offer the 800 Mbps ingress share, but IntServ's
     all-or-nothing RSVP admission rejects any demand above it), and
     together 3 of the 8 Gbps trunk share. *)
  let honest =
    List.init honest_n (fun i ->
        let src = Topology_gen.funnel_honest (i + 1) in
        let s =
          ok "honest preload"
            (Deployment.setup_segr d ~path:(up_path db src) ~kind:Reservation.Up
               ~max_bw:(mbps 750.) ~min_bw:(mbps 1.))
        in
        (src, s.Reservation.key, Reservation.segr_bw s ~now:(Deployment.now d)))
  in
  (* Bot spam, driven through the engine: every bot fires 10 rounds of
     SegR setups (jittered per-attacker arrivals) and, once it holds
     any up-capacity, EER setups toward the core on top. *)
  let bn =
    Botnet.create ~seed
      ~ases:(List.init bots_n (fun i -> Topology_gen.funnel_bot (i + 1)))
  in
  let seg_attempts = ref 0 and seg_granted = ref 0 in
  let eer_attempts = ref 0 and eer_granted = ref 0 in
  Botnet.schedule_setups bn ~engine ~start:0.2 ~interval:0.1 ~jitter:0.08
    ~rounds:10 ~fire:(fun b ~round:_ ->
      incr seg_attempts;
      (match
         Deployment.setup_segr d
           ~path:(up_path db b.Botnet.asn)
           ~kind:Reservation.Up
           ~max_bw:(Botnet.demand b ~min_mbps:300. ~max_mbps:1000.)
           ~min_bw:(mbps 50.)
       with
      | Ok _ -> incr seg_granted
      | Error _ -> ());
      incr eer_attempts;
      match
        Deployment.setup_eer_auto d ~src:b.Botnet.asn
          ~src_host:(Ids.host b.Botnet.id) ~dst:Topology_gen.funnel_core
          ~dst_host:(Ids.host 1)
          ~bw:(Botnet.demand b ~min_mbps:20. ~max_mbps:200.)
      with
      | Ok _ -> incr eer_granted
      | Error _ -> ());
  Deployment.advance d 3.0;
  (* The contested resource: the trunk egress of the transfer AS. *)
  let be = Cserv.backend (Deployment.cserv d Topology_gen.funnel_transfer) in
  let total_bps =
    Bandwidth.to_bps
      (Backend.seg_allocated_on be ~egress:Topology_gen.funnel_trunk_iface)
  in
  let share_bps = 0.8 *. Bandwidth.to_bps trunk in
  let now = Deployment.now d in
  let honest_bps, honest_preserved =
    List.fold_left
      (fun (acc, preserved) (src, key, bw0) ->
        match Cserv.own_segr (Deployment.cserv d src) key with
        | Some s ->
            let bw = Bandwidth.to_bps (Reservation.segr_bw s ~now) in
            (acc +. bw, preserved && bw >= Bandwidth.to_bps bw0 -. 1.)
        | None -> (acc, false))
      (0., true) honest
  in
  let xh_digest =
    Fmt.str "exhaustion/%s seg=%d/%d eer=%d/%d honest=%.0f total=%.0f\n%s"
      backend.Backend.label !seg_granted !seg_attempts !eer_granted
      !eer_attempts honest_bps total_bps
      (Obs.to_json
         (Obs.merge
            [
              Backend.obs_snapshot be;
              Backend.obs_snapshot
                (Cserv.backend (Deployment.cserv d Topology_gen.funnel_core));
            ]))
  in
  {
    xh_backend = backend.Backend.label;
    xh_bound_enforced = Backend.capacity_bound_enforced be;
    xh_honest_bps = honest_bps;
    xh_total_bps = total_bps;
    xh_share_bps = share_bps;
    xh_honest_share = honest_bps /. Float.max total_bps share_bps;
    xh_honest_preserved = honest_preserved;
    xh_capacity_respected = total_bps <= share_bps *. 1.000001;
    xh_bot_seg_attempts = !seg_attempts;
    xh_bot_seg_granted = !seg_granted;
    xh_bot_eer_attempts = !eer_attempts;
    xh_bot_eer_granted = !eer_granted;
    xh_digest;
  }

(* ------------------------------------------------------------------ *)
(* Scenario (b): data-plane overuse through a rogue gateway.           *)
(* ------------------------------------------------------------------ *)

type overuse_report = {
  ou_backend : string;
  ou_bots : int;
  ou_flagged : int;  (** bots whose flow the OFD escalated to policing *)
  ou_blocked : int;  (** bots quarantined in the router blocklist *)
  ou_denied : int;  (** bots denied future reservations at the CServ *)
  ou_detection_windows : float;  (** worst flag latency, in OFD windows *)
  ou_bot_forwarded : int;
  ou_bot_policed : int;
  ou_bot_blocked_drops : int;
  ou_honest_sent : int;
  ou_honest_delivered : int;
  ou_digest : string;
}

let overuse ~(seed : int) ~(backend : Backend.factory) : overuse_report =
  let bots_n = 3 in
  let ofd_window = 1.0 in
  let topo =
    Topology_gen.funnel ~bots:bots_n ~honest:1 ~leaf_capacity:(gbps 1.)
      ~trunk_capacity:(gbps 10.)
  in
  let d =
    Deployment.create ~backend ~seed ~router_auto_block:true
      ~router_confirm_after_drops:40 topo
  in
  let engine = Deployment.engine d in
  let db = Deployment.seg_db d in
  let core = Topology_gen.funnel_core and x = Topology_gen.funnel_transfer in
  let xr = Deployment.router d x in
  let setup_seg src =
    ignore
      (ok "overuse segr"
         (Deployment.setup_segr d ~path:(up_path db src) ~kind:Reservation.Up
            ~max_bw:(mbps 500.) ~min_bw:(mbps 1.)))
  in
  (* Honest victim: a 50 Mbps EER, sent well within its reservation
     through the honest (policing) gateway. *)
  let honest_src = Topology_gen.funnel_honest 1 in
  setup_seg honest_src;
  let honest_eer =
    ok "honest EER"
      (Deployment.setup_eer_auto d ~src:honest_src ~src_host:(Ids.host 1)
         ~dst:core ~dst_host:(Ids.host 2) ~bw:(mbps 50.))
  in
  (* Bots: pay for 1 Mbps each, then send ~5x through a rogue gateway
     whose token bucket never clamps — the misbehaving source AS that
     skips its own monitoring duty (§4.8). *)
  let reserved = mbps 1. in
  let payload = 1200 in
  let bot_ases = List.init bots_n (fun i -> Topology_gen.funnel_bot (i + 1)) in
  let rigs =
    Array.of_list
      (List.map
         (fun src ->
           setup_seg src;
           let route =
             match Deployment.lookup_eer_routes d ~src ~dst:core with
             | r :: _ -> r
             | [] -> failwith "overuse: bot has no route"
           in
           let eer, version, sigmas =
             ok "bot EER"
               (Deployment.setup_eer_full d ~route ~src_host:(Ids.host 66)
                  ~dst_host:(Ids.host 2) ~bw:reserved)
           in
           let rogue =
             Gateway.create ~burst:1e9 ~clock:(Deployment.clock d) src
           in
           ok "rogue register" (Gateway.register rogue ~eer ~version ~sigmas);
           (src, eer, rogue))
         bot_ases)
  in
  let attack_start = 0.5 and attack_stop = 3.0 in
  let first_policed = Array.make bots_n Float.neg_infinity in
  let forwarded = ref 0 and policed = ref 0 and blocked_drops = ref 0 in
  let bn = Botnet.create ~seed ~ases:bot_ases in
  Botnet.schedule_traffic bn ~engine ~start:attack_start ~stop:attack_stop
    ~pps:520. ~fire:(fun b ->
      let i = b.Botnet.id - 1 in
      let _, eer, rogue = rigs.(i) in
      match
        Gateway.send_bytes rogue ~res_id:eer.Reservation.key.res_id
          ~payload_len:payload
      with
      | Ok _ -> (
          let raw = Bytes.sub (Gateway.out rogue) 0 (Gateway.out_len rogue) in
          match Router.process_bytes xr ~raw ~payload_len:payload with
          | Ok _ -> incr forwarded
          | Error Router.Policed ->
              incr policed;
              if first_policed.(i) = Float.neg_infinity then
                first_policed.(i) <- Deployment.now d
          | Error Router.Blocked_source -> incr blocked_drops
          | Error _ -> ())
      | Error _ -> ());
  (* Honest traffic at 50 pps through the full deployment path. *)
  let honest_sent = ref 0 and honest_delivered = ref 0 in
  let rec honest_tick at =
    if at < attack_stop then
      Net.Engine.schedule_at engine ~time:at (fun () ->
          incr honest_sent;
          (match
             Deployment.send_data d ~src:honest_src
               ~res_id:honest_eer.Reservation.key.res_id ~payload_len:800
           with
          | Ok { Deployment.delivered = true; _ } -> incr honest_delivered
          | Ok _ | Error _ -> ());
          honest_tick (at +. 0.02))
  in
  honest_tick (attack_start +. 0.05);
  Deployment.advance d 4.0;
  let bl = Router.blocklist xr in
  let flagged = ref 0 and detection = ref 0. in
  Array.iter
    (fun t ->
      if t > Float.neg_infinity then begin
        incr flagged;
        detection := Float.max !detection ((t -. attack_start) /. ofd_window)
      end)
    first_policed;
  let blocked =
    List.length (List.filter (Monitor.Blocklist.is_blocked bl) bot_ases)
  in
  let denied =
    List.length
      (List.filter
         (fun src -> Cserv.is_denied (Deployment.cserv d x) ~src)
         bot_ases)
  in
  let ou_digest =
    Fmt.str
      "overuse/%s flagged=%d blocked=%d denied=%d fwd=%d policed=%d \
       blockdrop=%d honest=%d/%d\n\
       %s"
      backend.Backend.label !flagged blocked denied !forwarded !policed
      !blocked_drops !honest_delivered !honest_sent
      (Obs.to_json (Obs.Registry.snapshot (Router.metrics xr)))
  in
  {
    ou_backend = backend.Backend.label;
    ou_bots = bots_n;
    ou_flagged = !flagged;
    ou_blocked = blocked;
    ou_denied = denied;
    ou_detection_windows = !detection;
    ou_bot_forwarded = !forwarded;
    ou_bot_policed = !policed;
    ou_bot_blocked_drops = !blocked_drops;
    ou_honest_sent = !honest_sent;
    ou_honest_delivered = !honest_delivered;
    ou_digest;
  }

(* ------------------------------------------------------------------ *)
(* Scenario (c): renewal-storm amplification.                          *)
(* ------------------------------------------------------------------ *)

type storm_report = {
  st_backend : string;
  st_requests : int;  (** retry-layer requests, attack run *)
  st_attempts : int;  (** transmissions across all requests *)
  st_sent : int;  (** control messages on the wire *)
  st_attempt_msg_bound : int;  (** messages one attempt may cost *)
  st_max_attempts : int;  (** the retry budget per request *)
  st_within_budget : bool;  (** sent ≤ requests × budget × bound *)
  st_clean_msgs_per_req : float;
  st_storm_msgs_per_req : float;
  st_amplification : float;  (** storm ∕ clean messages per request *)
  st_renewals_alive : bool;  (** every managed SegR survived the storm *)
  st_audit_errors : int;
  st_accounting_ok : bool;  (** sent = delivered + lost *)
  st_pending : int;  (** in-flight requests after drain (must be 0) *)
  st_digest : string;
}

(* One full renewal run over a 4-AS chain: 8 SegRs set up together (so
   their renewals synchronize at 0.7 x 300 s), 2 EERs churning every
   ~8 s in between. The attack run adds 2% loss, a CServ crash covering
   the first synchronized renewal instant, and a link flap at the
   second. *)
let storm_run ~(seed : int) ~(backend : Backend.factory) ~(attack : bool) =
  let n = 4 in
  let topo = Topology_gen.linear ~n ~capacity:(gbps 100.) in
  let d = Deployment.create ~backend ~seed topo in
  let faults = Net.Fault.create ~seed () in
  if attack then begin
    Net.Fault.set_default faults (Net.Fault.plan ~loss:0.02 ~jitter:0.001 ());
    Net.Fault.crash_server faults ~asn:(Ids.asn ~isd:1 ~num:2) ~at:208.
      ~duration:12.;
    Net.Fault.flap_link faults
      ~src:(Ids.asn ~isd:1 ~num:2)
      ~dst:(Ids.asn ~isd:1 ~num:3)
      ~down_at:419. ~up_at:424.
  end;
  Deployment.attach_network ~faults ~retry_seed:(seed * 13) d;
  let path = Topology_gen.linear_path ~n in
  let segrs =
    List.init 8 (fun _ ->
        ok "storm segr"
          (Deployment.setup_segr_sync d ~path ~kind:Reservation.Core
             ~max_bw:(mbps 200.) ~min_bw:(mbps 1.)))
  in
  let managed =
    List.map
      (fun (s : Reservation.segr) ->
        ok "storm renew"
          (Deployment.auto_renew_segr d ~key:s.key ~max_bw:(mbps 200.)
             ~min_bw:(mbps 1.)))
      segrs
  in
  let first =
    match segrs with s :: _ -> s | [] -> failwith "storm: no segr"
  in
  let route : Deployment.eer_route = { path; segr_keys = [ first.key ] } in
  let eer_managed =
    List.init 2 (fun i ->
        let src_host = Ids.host (i + 1) and dst_host = Ids.host 9 in
        let e =
          ok "storm eer"
            (Deployment.setup_eer_sync d ~route ~src_host ~dst_host
               ~bw:(mbps 10.))
        in
        ok "storm eer renew"
          (Deployment.auto_renew_eer d ~key:e.Reservation.key ~route ~src_host
             ~dst_host ~bw:(mbps 10.)))
  in
  Deployment.advance d 650.;
  let now = Deployment.now d in
  let alive =
    List.for_all
      (fun m ->
        let key = Deployment.managed_key m in
        match Cserv.own_segr (Deployment.cserv d key.Ids.src_as) key with
        | Some s -> Bandwidth.is_positive (Reservation.segr_bw s ~now)
        | None -> false)
      managed
  in
  List.iter Deployment.stop_renewal managed;
  List.iter Deployment.stop_renewal eer_managed;
  Deployment.advance d 120.;
  let cn = Deployment.control_net d in
  let sent = Control_net.sent_count cn in
  let accounting_ok =
    sent = Control_net.delivered_count cn + Control_net.lost_count cn
  in
  let snap = Obs.Registry.snapshot (Deployment.network_metrics d) in
  let requests = counter_value snap "retry_requests_total" in
  let attempts = counter_value snap "retry_attempts_total" in
  let audit_errors = List.length (Deployment.audit_all d) in
  let pending = Retry.pending (Deployment.retrier d) in
  (alive, accounting_ok, audit_errors, pending, sent, requests, attempts,
   Obs.to_json snap)

let storm ~(seed : int) ~(backend : Backend.factory) : storm_report =
  let ( _, _, _, _, clean_sent, clean_requests, _, _ ) =
    storm_run ~seed ~backend ~attack:false
  in
  let ( alive, accounting_ok, audit_errors, pending, sent, requests, attempts,
        json ) =
    storm_run ~seed ~backend ~attack:true
  in
  (* Per-attempt message cost bound for an n-hop walk: a forward pass
     and a backward (commit or deny) pass, one message per link — the
     DRKey round trips cost 2 and fit well inside it. *)
  let n = 4 in
  let attempt_msg_bound = 2 * n in
  let max_attempts = Retry.default_policy.Retry.max_attempts in
  let clean_per_req =
    float_of_int clean_sent /. float_of_int (max 1 clean_requests)
  in
  let storm_per_req = float_of_int sent /. float_of_int (max 1 requests) in
  let st_digest =
    Fmt.str
      "storm/%s req=%d att=%d sent=%d clean_req=%d clean_sent=%d alive=%b \
       audits=%d pending=%d\n\
       %s"
      backend.Backend.label requests attempts sent clean_requests clean_sent
      alive audit_errors pending json
  in
  {
    st_backend = backend.Backend.label;
    st_requests = requests;
    st_attempts = attempts;
    st_sent = sent;
    st_attempt_msg_bound = attempt_msg_bound;
    st_max_attempts = max_attempts;
    st_within_budget = sent <= requests * max_attempts * attempt_msg_bound;
    st_clean_msgs_per_req = clean_per_req;
    st_storm_msgs_per_req = storm_per_req;
    st_amplification = storm_per_req /. Float.max 1e-9 clean_per_req;
    st_renewals_alive = alive;
    st_audit_errors = audit_errors;
    st_accounting_ok = accounting_ok;
    st_pending = pending;
    st_digest;
  }

(* ------------------------------------------------------------------ *)
(* The full suite: every scenario against every backend.               *)
(* ------------------------------------------------------------------ *)

type suite = {
  s_seed : int;
  s_exhaustion : exhaustion_report list;
  s_overuse : overuse_report list;
  s_storm : storm_report list;
  s_digest : string;  (** byte-stable replay digest over every report *)
}

let run_suite ~(seed : int) : suite =
  let backends = Backends.All.all in
  let ex = List.map (fun f -> exhaustion ~seed ~backend:f) backends in
  let ou = List.map (fun f -> overuse ~seed ~backend:f) backends in
  let st = List.map (fun f -> storm ~seed ~backend:f) backends in
  let s_digest =
    String.concat "\n--\n"
      (List.map (fun r -> r.xh_digest) ex
      @ List.map (fun r -> r.ou_digest) ou
      @ List.map (fun r -> r.st_digest) st)
  in
  { s_seed = seed; s_exhaustion = ex; s_overuse = ou; s_storm = st; s_digest }
