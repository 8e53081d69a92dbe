(** Integration tests over the full deployment: route lookup, EER
    setup over one/two/three SegRs, seamless EER renewal, SegR version
    switch under live EERs, path choice on failure, stale-cache
    invalidation (Appendix C), and the isolation of the instantaneous
    setups from an attached network. *)

open Colibri_types
open Colibri_topology
open Colibri
module G = Topology_gen.Two_isd

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps

(* Deployment with the standard set of SegRs established:
   up S→Y1, core Y1→W1, down W1→D, plus up T→Y2 (alternate). *)
let rig () =
  let d = Deployment.create (Topology_gen.two_isd ()) in
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

let stale_cached_segr_invalidated () =
  let d, _, _, down = rig () in
  (* Build a route, then let every SegR expire; the EER setup must fail
     with an expiry signal and the stale entry must leave the cache. *)
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

let destination_policy_refuses () =
  let policy_for asn =
    if Ids.equal_asn asn G.d then
      { Cserv.default_policy with accept_incoming = (fun _ _ -> false) }
    else Cserv.default_policy
  in
  let d = Deployment.create ~policy_for (Topology_gen.two_isd ()) in
  let db = Deployment.seg_db d in
  let up = List.hd (Segments.Db.up_segments db ~src:G.s) in
  let _ =
    Result.get_ok
      (Deployment.setup_segr d ~path:up.Segments.path ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 1.))
  in
  let down = List.hd (Segments.Db.down_segments db ~dst:G.d) in
  let _ =
    Result.get_ok
      (Deployment.request_down_segr d ~path:down.Segments.path ~max_bw:(gbps 1.)
         ~min_bw:(mbps 1.))
  in
  let core_src = Path.destination up.Segments.path in
  let core_dst = Path.source down.Segments.path in
  let core = List.hd (Segments.Db.core_segments db ~src:core_src ~dst:core_dst) in
  let _ =
    Result.get_ok
      (Deployment.setup_segr d ~path:core.Segments.path ~kind:Reservation.Core
         ~max_bw:(gbps 1.) ~min_bw:(mbps 1.))
  in
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
  let d = Deployment.create ~policy_for (Topology_gen.two_isd ()) in
  let db = Deployment.seg_db d in
  let up = List.hd (Segments.Db.up_segments db ~src:G.s) in
  let _ =
    Result.get_ok
      (Deployment.setup_segr d ~path:up.Segments.path ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 1.))
  in
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
  let d = Deployment.create (Topology_gen.two_isd ()) in
  let db = Deployment.seg_db d in
  let up = List.hd (Segments.Db.up_segments db ~src:G.s) in
  let segr =
    Result.get_ok
      (Deployment.setup_segr d ~path:up.Segments.path ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 1.))
  in
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
  let counter name =
    match
      List.assoc_opt name (Obs.Registry.snapshot (Deployment.network_metrics d))
    with
    | Some (Obs.Counter v) -> v
    | _ -> Alcotest.failf "no counter %s" name
  in
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
    Alcotest.test_case "stale cached SegR invalidated (App. C)" `Quick stale_cached_segr_invalidated;
    Alcotest.test_case "destination policy refuses" `Quick destination_policy_refuses;
    Alcotest.test_case "source policy caps host bandwidth" `Quick source_policy_caps_host_bw;
  ]
