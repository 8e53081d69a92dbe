(** Integration tests over the full deployment: route lookup, EER
    setup over one/two/three SegRs, seamless EER renewal, SegR version
    switch under live EERs, path choice on failure, lookups that follow
    renewed SegRs and check whitelists against the source (Appendix C),
    the isolation of the instantaneous setups from an attached network,
    managed EERs that outlive the SegRs under them, and the recovery
    budget of the renewal machine. *)

open Colibri_types
open Colibri_topology
open Colibri
module G = Topology_gen.Two_isd

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps

let net_counter d name =
  match List.assoc_opt name (Obs.Registry.snapshot (Deployment.network_metrics d)) with
  | Some (Obs.Counter v) -> v
  | _ -> Alcotest.failf "no counter %s" name

(* Deployment with the standard set of SegRs established:
   up S→Y1, core Y1→W1, down W1→D, plus up T→Y2 (alternate). *)
let rig ?policy_for () =
  let d = Deployment.create ?policy_for (Topology_gen.two_isd ()) in
  let db = Deployment.seg_db d in
  let setup_seg kind path max_bw =
    Result.get_ok
      (Deployment.setup_segr d ~path ~kind ~max_bw ~min_bw:(mbps 1.))
  in
  let up = List.hd (Segments.Db.up_segments db ~src:G.s) in
  let up_segr = setup_seg Reservation.Up up.Segments.path (gbps 2.) in
  let down = List.hd (Segments.Db.down_segments db ~dst:G.d) in
  let down_segr =
    Result.get_ok
      (Deployment.request_down_segr d ~path:down.Segments.path ~max_bw:(gbps 2.)
         ~min_bw:(mbps 1.))
  in
  let core_src = Path.destination up.Segments.path in
  let core_dst = Path.source down.Segments.path in
  let core = List.hd (Segments.Db.core_segments db ~src:core_src ~dst:core_dst) in
  let core_segr = setup_seg Reservation.Core core.Segments.path (gbps 5.) in
  (d, up_segr, core_segr, down_segr)

let route_lookup_spans_three_segrs () =
  let d, up, core, down = rig () in
  let routes = Deployment.lookup_eer_routes d ~src:G.s ~dst:G.d in
  Alcotest.(check bool) "route found" true (routes <> []);
  let r = List.hd routes in
  Alcotest.(check int) "three SegRs" 3 (List.length r.segr_keys);
  Alcotest.(check bool) "keys in path order" true
    (List.for_all2 Ids.equal_res_key r.segr_keys [ up.key; core.key; down.key ]);
  Alcotest.(check bool) "spliced path valid" true (Path.validate r.path = Ok ());
  Alcotest.(check bool) "ends at D" true (Ids.equal_asn (Path.destination r.path) G.d)

let eer_over_single_segr () =
  let d, up, _, _ = rig () in
  let routes = Deployment.lookup_eer_routes d ~src:G.s ~dst:G.y1 in
  Alcotest.(check bool) "leaf→core route" true (routes <> []);
  let r = List.hd routes in
  Alcotest.(check int) "one SegR" 1 (List.length r.segr_keys);
  Alcotest.(check bool) "it is the up SegR" true
    (Ids.equal_res_key (List.hd r.segr_keys) up.key);
  match
    Deployment.setup_eer d ~route:r ~src_host:(Ids.host 1) ~dst_host:(Ids.host 5)
      ~bw:(mbps 10.)
  with
  | Ok eer ->
      Alcotest.(check int) "short path" 3 (Path.length eer.path)
  | Error e -> Alcotest.fail e

let eer_renewal_seamless () =
  let d, _, _, _ = rig () in
  let eer =
    Result.get_ok
      (Deployment.setup_eer_auto d ~src:G.s ~src_host:(Ids.host 1) ~dst:G.d
         ~dst_host:(Ids.host 2) ~bw:(mbps 100.))
  in
  (* Traffic flows on v1. *)
  let send () = Deployment.send_data d ~src:G.s ~res_id:eer.key.res_id ~payload_len:500 in
  (match send () with
  | Ok { delivered = true; _ } -> ()
  | _ -> Alcotest.fail "v1 traffic failed");
  (* Renew shortly before expiry: v2 coexists with v1 (§4.2). *)
  Deployment.advance d 10.;
  let route : Deployment.eer_route = { path = eer.path; segr_keys = eer.segr_keys } in
  let eer2 =
    Result.get_ok
      (Deployment.setup_eer ~renew:eer.key d ~route ~src_host:(Ids.host 1)
         ~dst_host:(Ids.host 2) ~bw:(mbps 100.))
  in
  Alcotest.(check bool) "same reservation" true (Ids.equal_res_key eer2.key eer.key);
  Alcotest.(check int) "two live versions" 2
    (List.length (Reservation.eer_valid_versions eer2 ~now:(Deployment.now d)));
  (* Past v1 expiry, traffic continues over v2: no interruption. *)
  Deployment.advance d 10.;
  (match send () with
  | Ok { delivered = true; _ } -> ()
  | Ok { dropped_at = Some (a, r); _ } ->
      Alcotest.failf "dropped at %a: %a" Ids.pp_asn a Router.pp_drop_reason r
  | Ok _ -> Alcotest.fail "not delivered"
  | Error e -> Alcotest.failf "gateway: %a" Gateway.pp_drop_reason e);
  (* Past v2 expiry, the reservation lapses. *)
  Deployment.advance d 20.;
  match send () with
  | Error Gateway.Expired | Error Gateway.Unknown_reservation -> ()
  | _ -> Alcotest.fail "expired EER still usable"

let segr_version_switch_under_live_eers () =
  (* §4.2: EERs are not affected by a version change of their SegR. *)
  let d, up, _, _ = rig () in
  let route = List.hd (Deployment.lookup_eer_routes d ~src:G.s ~dst:G.y1) in
  let eer =
    Result.get_ok
      (Deployment.setup_eer d ~route ~src_host:(Ids.host 1) ~dst_host:(Ids.host 9)
         ~bw:(mbps 10.))
  in
  (* Renew + activate the up-SegR while the EER lives. *)
  let _ =
    Result.get_ok
      (Deployment.setup_segr ~renew:up.key d ~path:up.path ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 1.))
  in
  (match Deployment.activate_segr d ~key:up.key with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* EER traffic still flows: σ_i depend only on the EER, not the SegR
     version. *)
  match Deployment.send_data d ~src:G.s ~res_id:eer.key.res_id ~payload_len:200 with
  | Ok { delivered = true; _ } -> ()
  | Ok { dropped_at = Some (a, r); _ } ->
      Alcotest.failf "dropped at %a: %a" Ids.pp_asn a Router.pp_drop_reason r
  | _ -> Alcotest.fail "EER broken by SegR version switch"

let eer_denied_when_segr_full () =
  let d, _, _, _ = rig () in
  (* The up SegR holds 2 Gbps: a 1.5 Gbps EER fits, a second does not
     (core segr 5 Gbps is not the bottleneck). *)
  let route = List.hd (Deployment.lookup_eer_routes d ~src:G.s ~dst:G.d) in
  (match
     Deployment.setup_eer d ~route ~src_host:(Ids.host 1) ~dst_host:(Ids.host 2)
       ~bw:(gbps 1.5)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match
    Deployment.setup_eer d ~route ~src_host:(Ids.host 3) ~dst_host:(Ids.host 2)
      ~bw:(gbps 1.)
  with
  | Error msg ->
      Alcotest.(check bool) "denial mentions bandwidth" true
        (Astring.String.is_infix ~affix:"insufficient" msg
        || Astring.String.is_infix ~affix:"bandwidth" msg)
  | Ok _ -> Alcotest.fail "over-allocation of the SegR"

let path_choice_on_failure () =
  (* §2.1 path choice: when the reservation cannot be met on the first
     route, the source AS tries an alternative. We create two up-SegRs
     (via Y1 and via Y2-route through X1's second provider); the first
     is too small for the EER, so setup succeeds over the second. *)
  let d = Deployment.create (Topology_gen.two_isd ()) in
  let db = Deployment.seg_db d in
  let ups = Segments.Db.up_segments db ~src:G.s in
  Alcotest.(check bool) "two up segments available" true (List.length ups >= 2);
  (* Small SegR on the shortest up segment, large one on the other. *)
  let u1 = List.nth ups 0 and u2 = List.nth ups 1 in
  let _small =
    Result.get_ok
      (Deployment.setup_segr d ~path:u1.Segments.path ~kind:Reservation.Up
         ~max_bw:(mbps 50.) ~min_bw:(mbps 1.))
  in
  let _large =
    Result.get_ok
      (Deployment.setup_segr d ~path:u2.Segments.path ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 1.))
  in
  (* Destination: the core AS at the top of u2. *)
  let dst = Path.destination u2.Segments.path in
  let routes = Deployment.lookup_eer_routes d ~src:G.s ~dst in
  Alcotest.(check bool) "multiple routes" true (List.length routes >= 1);
  match
    Deployment.setup_eer_auto d ~src:G.s ~src_host:(Ids.host 1) ~dst
      ~dst_host:(Ids.host 2) ~bw:(mbps 200.)
  with
  | Ok eer ->
      Alcotest.(check bool) "used a route" true (List.length eer.segr_keys >= 1)
  | Error e -> Alcotest.failf "no alternative used: %s" e

let lookup_offers_no_expired_segr () =
  let d, _, _, down = rig () in
  (* Build a route, then let every SegR expire; the EER setup must fail
     and the lookup must offer nothing. *)
  let routes = Deployment.lookup_eer_routes d ~src:G.s ~dst:G.d in
  let r = List.hd routes in
  Deployment.advance d (Reservation.segr_lifetime +. 1.);
  (match
     Deployment.setup_eer d ~route:r ~src_host:(Ids.host 1) ~dst_host:(Ids.host 2)
       ~bw:(mbps 10.)
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "EER over expired SegR accepted");
  ignore down;
  (* Lookup now offers nothing (expired everywhere). *)
  Alcotest.(check (list int)) "no stale routes" []
    (List.map (fun _ -> 0) (Deployment.lookup_eer_routes d ~src:G.s ~dst:G.d))

(* The rig's three SegRs, kept alive by the renewal machine over an
   attached network. *)
let managed_rig ?faults () =
  let d, up, core, down = rig () in
  Deployment.attach_network ?faults d;
  List.iter
    (fun ((s : Reservation.segr), max_bw) ->
      ignore
        (Result.get_ok
           (Deployment.auto_renew_segr d ~key:s.key ~max_bw ~min_bw:(mbps 1.))))
    [ (up, gbps 2.); (core, gbps 5.); (down, gbps 2.) ];
  d

(* Renewal keeps a SegR's key and replaces its version, so a lookup
   past the first versions' expiry (300 s) must still find them. *)
let lookup_follows_renewed_segrs () =
  let d = managed_rig () in
  Deployment.advance d 400.;
  Alcotest.(check bool) "route S→D at 400 s" true
    (Deployment.lookup_eer_routes d ~src:G.s ~dst:G.d <> [])

(* A managed down-SegR that lapses and recovers under a new key is
   shared again. Its initiator W1 is down from 200 s to 320 s, so the
   renewals fail, the SegR lapses at 300 s, and the recovery sets up a
   fresh one that the leaf's lookup must find. *)
let recovered_down_segr_shared_again () =
  let faults = Net.Fault.create ~seed:1 () in
  Net.Fault.crash_server faults ~asn:G.w1 ~at:200. ~duration:120.;
  let d = managed_rig ~faults () in
  Deployment.advance d 400.;
  Alcotest.(check bool) "route S→D at 400 s" true
    (Deployment.lookup_eer_routes d ~src:G.s ~dst:G.d <> [])

(* The leaf's key list tracks the live down-SegRs, not their history:
   200 down-SegRs requested one after another, each left to lapse,
   leave at most the live one plus the one just recorded. *)
let shared_keys_track_live_segrs () =
  let d = Deployment.create (Topology_gen.two_isd ()) in
  let down = List.hd (Segments.Db.down_segments (Deployment.seg_db d) ~dst:G.d) in
  for _ = 1 to 200 do
    ignore
      (Result.get_ok
         (Deployment.request_down_segr d ~path:down.Segments.path ~max_bw:(mbps 10.)
            ~min_bw:(mbps 1.)));
    Deployment.advance d (Reservation.segr_lifetime +. 1.)
  done;
  let live =
    List.length
      (List.filter
         (fun (k : Ids.res_key) ->
           Option.is_some
             (Cserv.live_segr (Deployment.cserv d k.src_as) ~requester:G.d k))
         (Cserv.shared_segrs (Deployment.cserv d G.d) ~dst:G.d))
  in
  let held = List.length (Cserv.shared_segrs (Deployment.cserv d G.d) ~dst:G.d) in
  Alcotest.(check bool) (Printf.sprintf "%d keys held, %d live" held live) true
    (held <= live + 1)

(* Managed EERs over three managed SegRs keep delivering up to three
   SegR lifetimes without giving up: one opened at 0 s, and one opened
   by path choice at 400 s, past the SegRs' first versions. *)
let managed_eers_over_managed_segrs () =
  let d = managed_rig () in
  let dst_host = Ids.host 2 and bw = mbps 10. in
  let open_flow i =
    let src_host = Ids.host i in
    let eer =
      Result.get_ok
        (Deployment.setup_eer_auto_sync d ~src:G.s ~src_host ~dst:G.d ~dst_host ~bw)
    in
    Result.get_ok
      (Deployment.auto_renew_eer d ~key:eer.key
         ~route:{ path = eer.path; segr_keys = eer.segr_keys }
         ~src_host ~dst_host ~bw)
  in
  let first = open_flow 1 in
  Deployment.advance d 400.;
  let second = open_flow 2 in
  Deployment.advance d (900. -. Deployment.now d);
  List.iter
    (fun m ->
      match
        Deployment.send_data d ~src:G.s ~res_id:(Deployment.managed_key m).res_id
          ~payload_len:500
      with
      | Ok { delivered = true; _ } -> ()
      | Ok { dropped_at = Some (a, r); _ } ->
          Alcotest.failf "dropped at %a: %a" Ids.pp_asn a Router.pp_drop_reason r
      | Ok _ -> Alcotest.fail "not delivered"
      | Error e -> Alcotest.failf "gateway: %a" Gateway.pp_drop_reason e)
    [ first; second ];
  Alcotest.(check int) "never gave up" 0 (net_counter d "renewal_gave_up_total")

(* The whitelist of a shared down-SegR is checked against the source
   of each lookup (Appendix C). *)
let whitelist_checked_against_source () =
  let d, _, _, down = rig () in
  let core = Deployment.cserv d down.key.src_as in
  let routes () = List.length (Deployment.lookup_eer_routes d ~src:G.s ~dst:G.d) in
  (match
     Cserv.register_segr core ~key:down.key ~allowed:(Some (Ids.Asn_set.singleton G.t))
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "S not whitelisted" 0 (routes ());
  (match Cserv.register_segr core ~key:down.key ~allowed:None with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "open again" 1 (routes ())

(* Failed renewals do not eat the recovery budget: a managed EER whose
   only SegR lapses degrades six times (five retries after the first
   recovery) before it gives up. *)
let recovery_budget_counts_recoveries_only () =
  let d = Deployment.create (Topology_gen.linear ~n:4 ~capacity:(gbps 10.)) in
  Deployment.attach_network d;
  let path = Topology_gen.linear_path ~n:4 in
  let segr =
    Result.get_ok
      (Deployment.setup_segr_sync d ~path ~kind:Reservation.Core ~max_bw:(gbps 1.)
         ~min_bw:(mbps 1.))
  in
  let route : Deployment.eer_route = { path; segr_keys = [ segr.key ] } in
  let src_host = Ids.host 1 and dst_host = Ids.host 2 and bw = mbps 10. in
  let eer = Result.get_ok (Deployment.setup_eer_sync d ~route ~src_host ~dst_host ~bw) in
  ignore
    (Result.get_ok (Deployment.auto_renew_eer d ~key:eer.key ~route ~src_host ~dst_host ~bw));
  Deployment.advance d 400.;
  Alcotest.(check int) "degraded" 6 (net_counter d "renewal_degraded_total");
  Alcotest.(check int) "gave up once" 1 (net_counter d "renewal_gave_up_total")

let destination_policy_refuses () =
  let policy_for asn =
    if Ids.equal_asn asn G.d then
      { Cserv.default_policy with accept_incoming = (fun _ _ -> false) }
    else Cserv.default_policy
  in
  let d, _, _, _ = rig ~policy_for () in
  match
    Deployment.setup_eer_auto d ~src:G.s ~src_host:(Ids.host 1) ~dst:G.d
      ~dst_host:(Ids.host 2) ~bw:(mbps 10.)
  with
  | Error msg ->
      Alcotest.(check bool) "destination refused" true
        (Astring.String.is_infix ~affix:"destination" msg
        || Astring.String.is_infix ~affix:"refused" msg)
  | Ok _ -> Alcotest.fail "destination policy ignored"

let source_policy_caps_host_bw () =
  let policy_for asn =
    if Ids.equal_asn asn G.s then
      { Cserv.default_policy with max_eer_bw = mbps 50. }
    else Cserv.default_policy
  in
  let d, _, _, _ = rig ~policy_for () in
  let route = List.hd (Deployment.lookup_eer_routes d ~src:G.s ~dst:G.y1) in
  (match
     Deployment.setup_eer d ~route ~src_host:(Ids.host 1) ~dst_host:(Ids.host 2)
       ~bw:(mbps 100.)
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "host exceeded its policy cap");
  match
    Deployment.setup_eer d ~route ~src_host:(Ids.host 1) ~dst_host:(Ids.host 2)
      ~bw:(mbps 40.)
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "within-cap request refused: %s" e

let renewal_renegotiates_bandwidth () =
  (* §4.2: "an AS on the path may also wish to reduce an EER's
     bandwidth". We shrink the underlying SegR via renewal+activation;
     the EER's next renewal is then granted only what still fits,
     instead of being denied outright. *)
  let d, segr, _, _ = rig () in
  let route = List.hd (Deployment.lookup_eer_routes d ~src:G.s ~dst:G.y1) in
  let eer =
    Result.get_ok
      (Deployment.setup_eer d ~route ~src_host:(Ids.host 1) ~dst_host:(Ids.host 2)
         ~bw:(mbps 800.))
  in
  (* The AS shrinks the SegR to 500 Mbps (demand shifted elsewhere). *)
  let _ =
    Result.get_ok
      (Deployment.setup_segr ~renew:segr.key d ~path:segr.path ~kind:Reservation.Up
         ~max_bw:(mbps 500.) ~min_bw:(mbps 1.))
  in
  (match Deployment.activate_segr d ~key:segr.key with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Renewal at the old 800 Mbps: granted, but re-negotiated down. *)
  Deployment.advance d 2.;
  let renewed =
    Result.get_ok
      (Deployment.setup_eer ~renew:eer.key d ~route ~src_host:(Ids.host 1)
         ~dst_host:(Ids.host 2) ~bw:(mbps 800.))
  in
  let now = Deployment.now d in
  (match Reservation.eer_current_version renewed ~now with
  | Some v ->
      Alcotest.(check bool)
        (Fmt.str "renewed at the SegR's new size (%a)" Bandwidth.pp v.bw)
        true
        (Bandwidth.to_bps v.bw <= 500e6 +. 1. && Bandwidth.to_bps v.bw > 0.)
  | None -> Alcotest.fail "no current version");
  (* A fresh setup at 800 Mbps is still strictly denied. *)
  match
    Deployment.setup_eer d ~route ~src_host:(Ids.host 3) ~dst_host:(Ids.host 2)
      ~bw:(mbps 800.)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict setup should not be partial"

(* The instantaneous entry points run over the synchronous transport:
   an attached network that loses everything, plus a crashed CServ on
   the path, must neither stop them nor see a single message or retry,
   and they advance no simulated time. The networked entry point on the
   same deployment meets the faults, is refused, and leaks nothing. *)
let instantaneous_setups_ignore_the_network () =
  let n = 4 in
  let d = Deployment.create (Topology_gen.linear ~n ~capacity:(gbps 10.)) in
  let faults = Net.Fault.create ~seed:5 () in
  Net.Fault.set_default faults (Net.Fault.plan ~loss:1.0 ());
  Net.Fault.crash_server faults ~asn:(Ids.asn ~isd:1 ~num:2) ~at:0. ~duration:1000.;
  Deployment.attach_network ~faults d;
  let counter = net_counter d in
  let quiet what =
    Alcotest.(check int) (what ^ ": no message sent") 0
      (counter "control_net_messages_sent_total");
    Alcotest.(check int) (what ^ ": no retry request") 0 (counter "retry_requests_total")
  in
  let path = Topology_gen.linear_path ~n in
  let t0 = Deployment.now d in
  let segr =
    match
      Deployment.setup_segr d ~path ~kind:Reservation.Core ~max_bw:(gbps 1.)
        ~min_bw:(mbps 1.)
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "setup_segr refused: %s" e
  in
  Alcotest.(check (float 0.)) "setup_segr advances no time" t0 (Deployment.now d);
  quiet "setup_segr";
  (match
     Deployment.setup_eer d
       ~route:{ path; segr_keys = [ segr.key ] }
       ~src_host:(Ids.host 1) ~dst_host:(Ids.host 2) ~bw:(mbps 10.)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup_eer refused: %s" e);
  Alcotest.(check (float 0.)) "setup_eer advances no time" t0 (Deployment.now d);
  quiet "setup_eer";
  (match
     Deployment.setup_segr_sync d ~path ~kind:Reservation.Core ~max_bw:(gbps 1.)
       ~min_bw:(mbps 1.)
   with
  | Ok _ -> Alcotest.fail "setup_segr_sync granted through a dead network"
  | Error _ -> ());
  Alcotest.(check (list string)) "no leaked admission state" [] (Deployment.audit_all d)

(* A managed EER outlives the SegR under it. Its core SegR A is
   replaced by a fresh SegR B on the same path and left to lapse; the
   EER's recovery finds its route dead, looks the routes up again and
   moves onto B (path choice, §2.1) instead of giving up. *)
let managed_eer_moves_to_live_segr () =
  let d = Deployment.create (Topology_gen.linear ~n:4 ~capacity:(gbps 10.)) in
  Deployment.attach_network d;
  let path = Topology_gen.linear_path ~n:4 in
  let managed_segr () =
    let s =
      Result.get_ok
        (Deployment.setup_segr_sync d ~path ~kind:Reservation.Core ~max_bw:(gbps 1.)
           ~min_bw:(mbps 1.))
    in
    Result.get_ok
      (Deployment.auto_renew_segr d ~key:s.key ~max_bw:(gbps 1.) ~min_bw:(mbps 1.))
  in
  let a = managed_segr () in
  let route : Deployment.eer_route = { path; segr_keys = [ Deployment.managed_key a ] } in
  let src_host = Ids.host 1 and dst_host = Ids.host 2 and bw = mbps 10. in
  let eer = Result.get_ok (Deployment.setup_eer_sync d ~route ~src_host ~dst_host ~bw) in
  let m =
    Result.get_ok (Deployment.auto_renew_eer d ~key:eer.key ~route ~src_host ~dst_host ~bw)
  in
  let b = managed_segr () in
  Deployment.stop_renewal a;
  Deployment.advance d 400.;
  let key = Deployment.managed_key m in
  let e = Option.get (Cserv.own_eer (Deployment.cserv d key.src_as) key) in
  Alcotest.(check bool) "managed EER still valid" false
    (Reservation.eer_expired e ~now:(Deployment.now d));
  Alcotest.(check bool) "its new key rides on SegR B" true
    (List.equal Ids.equal_res_key [ Deployment.managed_key b ] e.segr_keys)

let suite =
  [
    Alcotest.test_case "instantaneous setups ignore the network" `Quick
      instantaneous_setups_ignore_the_network;
    Alcotest.test_case "route lookup spans three SegRs" `Quick route_lookup_spans_three_segrs;
    Alcotest.test_case "renewal renegotiates bandwidth (§4.2)" `Quick renewal_renegotiates_bandwidth;
    Alcotest.test_case "EER over a single SegR" `Quick eer_over_single_segr;
    Alcotest.test_case "EER renewal is seamless (§4.2)" `Quick eer_renewal_seamless;
    Alcotest.test_case "SegR version switch under live EERs" `Quick segr_version_switch_under_live_eers;
    Alcotest.test_case "EER denied when SegR full" `Quick eer_denied_when_segr_full;
    Alcotest.test_case "path choice on failure (§2.1)" `Quick path_choice_on_failure;
    Alcotest.test_case "lookup offers no expired SegR (App. C)" `Quick
      lookup_offers_no_expired_segr;
    Alcotest.test_case "destination policy refuses" `Quick destination_policy_refuses;
    Alcotest.test_case "source policy caps host bandwidth" `Quick source_policy_caps_host_bw;
    Alcotest.test_case "managed EER moves to a live SegR (§2.1)" `Quick
      managed_eer_moves_to_live_segr;
    Alcotest.test_case "lookup follows renewed SegRs (App. C)" `Quick
      lookup_follows_renewed_segrs;
    Alcotest.test_case "managed EERs over managed SegRs live 900 s" `Quick
      managed_eers_over_managed_segrs;
    Alcotest.test_case "SegR whitelist checked against the source (App. C)" `Quick
      whitelist_checked_against_source;
    Alcotest.test_case "recovered down-SegR is shared again (App. C)" `Quick
      recovered_down_segr_shared_again;
    Alcotest.test_case "shared key lists track live SegRs (App. C)" `Quick
      shared_keys_track_live_segrs;
    Alcotest.test_case "recovery budget counts recoveries only" `Quick
      recovery_budget_counts_recoveries_only;
  ]
