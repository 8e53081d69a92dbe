(** Tests for the Colibri service: authenticated SegR/EER setup
    handlers, renewal versioning, activation, registry, and policing
    hooks. Uses the deployment orchestration over the two-ISD example
    topology. *)

open Colibri_types
open Colibri_topology
open Colibri
module G = Topology_gen.Two_isd

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps

let make_deployment () = Deployment.create (Topology_gen.two_isd ())

let up_path (d : Deployment.t) src =
  match Segments.Db.up_segments (Deployment.seg_db d) ~src with
  | s :: _ -> s.Segments.path
  | [] -> Alcotest.fail "no up segment"

let setup_up d =
  Deployment.setup_segr d ~path:(up_path d G.s) ~kind:Reservation.Up
    ~max_bw:(gbps 2.) ~min_bw:(mbps 10.)

let seg_setup_success () =
  let d = make_deployment () in
  match setup_up d with
  | Error e -> Alcotest.fail e
  | Ok segr ->
      Alcotest.(check int) "tokens for every AS" (Path.length segr.path)
        (List.length segr.tokens);
      (match segr.active with
      | Some v ->
          Alcotest.(check (float 1e3)) "granted full demand" 2e9 (Bandwidth.to_bps v.bw);
          Alcotest.(check (float 1e-6)) "five-minute lifetime"
            Reservation.segr_lifetime v.exp_time
      | None -> Alcotest.fail "no active version");
      (* Every on-path AS holds a transit record. *)
      List.iter
        (fun (hop : Path.hop) ->
          match Cserv.transit_segr (Deployment.cserv d hop.asn) segr.key with
          | Some ts ->
              Alcotest.(check bool) "positive bw" true
                (Bandwidth.is_positive
                   (Reservation.segr_bw ts.segr ~now:(Deployment.now d)))
          | None -> Alcotest.failf "missing transit record at %a" Ids.pp_asn hop.asn)
        segr.path

let seg_setup_grants_path_minimum () =
  (* Saturate the X1→Y1 link from another tenant first; a later setup
     gets the bottleneck bandwidth, not its demand. *)
  let d = make_deployment () in
  (match setup_up d with Ok _ -> () | Error e -> Alcotest.fail e);
  (* Demand far above the 40 Gbps × 0.8 link share: grant is capped. *)
  match
    Deployment.setup_segr d ~path:(up_path d G.s) ~kind:Reservation.Up
      ~max_bw:(gbps 100.) ~min_bw:(mbps 1.)
  with
  | Error e -> Alcotest.fail e
  | Ok segr -> (
      match segr.active with
      | Some v ->
          Alcotest.(check bool) "capped below demand" true
            (Bandwidth.to_bps v.bw < 100e9);
          Alcotest.(check bool) "positive" true (Bandwidth.is_positive v.bw)
      | None -> Alcotest.fail "no active version")

let seg_setup_denied_cleans_up () =
  let d = make_deployment () in
  (* min_bw above the link capacity → denial at the first AS. *)
  (match
     Deployment.setup_segr d ~path:(up_path d G.s) ~kind:Reservation.Up
       ~max_bw:(gbps 500.) ~min_bw:(gbps 200.)
   with
  | Ok _ -> Alcotest.fail "should be denied"
  | Error _ -> ());
  (* No residue: full setup now succeeds with the whole share. *)
  match
    Deployment.setup_segr d ~path:(up_path d G.s) ~kind:Reservation.Up
      ~max_bw:(gbps 32.) ~min_bw:(gbps 31.)
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "temporary state leaked: %s" e

let seg_renewal_and_activation () =
  let d = make_deployment () in
  let segr = Result.get_ok (setup_up d) in
  let v1_bw = (Option.get segr.active).bw in
  (* Renewal: creates a pending version; active unchanged (§4.2). *)
  (match
     Deployment.setup_segr d ~renew:segr.key ~path:segr.path ~kind:Reservation.Up
       ~max_bw:(gbps 1.) ~min_bw:(mbps 10.)
   with
  | Error e -> Alcotest.fail e
  | Ok segr' ->
      Alcotest.(check bool) "same record" true (Ids.equal_res_key segr'.key segr.key);
      (match (segr'.active, segr'.pending) with
      | Some a, Some p ->
          Alcotest.(check (float 1e3)) "active untouched" (Bandwidth.to_bps v1_bw)
            (Bandwidth.to_bps a.bw);
          Alcotest.(check int) "pending is v2" 2 p.version
      | _ -> Alcotest.fail "expected active+pending"));
  (* Explicit activation switches the version everywhere. *)
  (match Deployment.activate_segr d ~key:segr.key with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match (segr.active, segr.pending) with
  | Some a, None -> Alcotest.(check int) "v2 active" 2 a.version
  | _ -> Alcotest.fail "activation did not switch");
  (* On-path state agrees. *)
  let mid = List.nth segr.path 1 in
  match Cserv.transit_segr (Deployment.cserv d mid.asn) segr.key with
  | Some ts ->
      Alcotest.(check int) "transit active v2" 2
        (Option.get ts.segr.active).Reservation.version
  | None -> Alcotest.fail "missing transit record"

let seg_activation_without_pending_fails () =
  let d = make_deployment () in
  let segr = Result.get_ok (setup_up d) in
  match Deployment.activate_segr d ~key:segr.key with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "activated with no pending version"

let seg_request_auth_rejected () =
  (* A request whose MACs were made with the wrong key is refused. *)
  let d = make_deployment () in
  let c = Deployment.cserv d G.s in
  let req, _auth =
    Result.get_ok
      (Cserv.make_seg_request c ~path:(up_path d G.s) ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 1.) ~renew:None)
  in
  (* Forge MACs with a random key. *)
  let bogus_key = Crypto.Cmac.of_secret (Bytes.make 16 'e') in
  let digest = Protocol.seg_request_digest req in
  let forged =
    Protocol.authenticate_request ~digest
      ~key_for:(fun _ -> bogus_key)
      ~ases:(Path.ases req.path)
  in
  let first_transit = List.nth req.path 1 in
  (match
     Cserv.handle_seg_request_forward (Deployment.cserv d first_transit.asn) ~req
       ~auth:forged
   with
  | `Deny Protocol.Bad_authentication -> ()
  | `Deny r -> Alcotest.failf "wrong denial: %a" Protocol.pp_deny_reason r
  | `Continue _ -> Alcotest.fail "forged request accepted");
  (* Missing MAC for the AS: also refused. *)
  match
    Cserv.handle_seg_request_forward (Deployment.cserv d first_transit.asn) ~req
      ~auth:[]
  with
  | `Deny Protocol.Bad_authentication -> ()
  | _ -> Alcotest.fail "absent MAC accepted"

let seg_reply_tampering_rejected () =
  let d = make_deployment () in
  let c = Deployment.cserv d G.s in
  let req, auth =
    Result.get_ok
      (Cserv.make_seg_request c ~path:(up_path d G.s) ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 1.) ~renew:None)
  in
  (* Run the protocol manually, then tamper with a reply hop. *)
  List.iter
    (fun (hop : Path.hop) ->
      match
        Cserv.handle_seg_request_forward (Deployment.cserv d hop.asn) ~req ~auth
      with
      | `Continue _ -> ()
      | `Deny r -> Alcotest.failf "unexpected denial: %a" Protocol.pp_deny_reason r)
    req.path;
  let hops =
    List.map
      (fun (hop : Path.hop) ->
        Cserv.handle_seg_reply_backward (Deployment.cserv d hop.asn) ~req
          ~final_bw:(gbps 1.))
      req.path
  in
  let tampered =
    match hops with
    | h :: rest -> { h with Protocol.granted = gbps 2. } :: rest
    | [] -> []
  in
  match
    Cserv.process_seg_reply c ~req
      ~reply:(Protocol.Granted { final_bw = gbps 1.; hops = tampered })
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered reply accepted"

let registry_whitelist () =
  let d = make_deployment () in
  let segr = Result.get_ok (setup_up d) in
  let c = Deployment.cserv d G.s in
  let allowed = Ids.Asn_set.of_list [ G.d ] in
  (match Cserv.register_segr c ~key:segr.key ~allowed:(Some allowed) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let live requester = List.length (Cserv.live_segrs c ~requester ~kind:segr.kind) in
  Alcotest.(check int) "whitelisted requester sees it" 1 (live G.d);
  Alcotest.(check int) "other requester filtered" 0 (live G.e);
  (* Open registration. *)
  (match Cserv.register_segr c ~key:segr.key ~allowed:None with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "open to all" 1 (live G.e)

let misbehavior_denies_future_requests () =
  let d = make_deployment () in
  let x1 = Deployment.cserv d G.x1 in
  Cserv.report_misbehavior x1 ~src:G.s;
  Alcotest.(check bool) "denied flag" true (Cserv.is_denied x1 ~src:G.s);
  match setup_up d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reservation from punished AS accepted"

let renewal_rate_limited () =
  let d = make_deployment () in
  (* Build a full EER first. *)
  let _ = Result.get_ok (setup_up d) in
  let segr = Result.get_ok
      (Deployment.setup_segr d ~path:(up_path d G.s) ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 1.)) in
  ignore segr;
  let c = Deployment.cserv d G.s in
  (* Make an EER to Y1 (leaf → core over just the up-SegR). *)
  let routes = Deployment.lookup_eer_routes d ~src:G.s ~dst:G.y1 in
  Alcotest.(check bool) "route exists" true (routes <> []);
  let eer =
    Result.get_ok
      (Deployment.setup_eer d ~route:(List.hd routes) ~src_host:(Ids.host 1)
         ~dst_host:(Ids.host 2) ~bw:(mbps 50.))
  in
  (* First renewal passes, immediate second one is rate limited (§4.2). *)
  (match
     Cserv.make_eer_request c ~path:eer.path ~src_host:eer.src_host
       ~dst_host:eer.dst_host ~bw:(mbps 50.) ~segr_keys:eer.segr_keys
       ~renew:(Some eer.key)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match
    Cserv.make_eer_request c ~path:eer.path ~src_host:eer.src_host
      ~dst_host:eer.dst_host ~bw:(mbps 50.) ~segr_keys:eer.segr_keys
      ~renew:(Some eer.key)
  with
  | Error "renewal rate limited" -> ()
  | Error e -> Alcotest.failf "wrong error: %s" e
  | Ok _ -> Alcotest.fail "second immediate renewal accepted"

let suite =
  [
    Alcotest.test_case "SegR setup success" `Quick seg_setup_success;
    Alcotest.test_case "SegR setup grants path minimum" `Quick seg_setup_grants_path_minimum;
    Alcotest.test_case "SegR denial cleans up" `Quick seg_setup_denied_cleans_up;
    Alcotest.test_case "SegR renewal and activation" `Quick seg_renewal_and_activation;
    Alcotest.test_case "activation without pending fails" `Quick seg_activation_without_pending_fails;
    Alcotest.test_case "request auth rejected" `Quick seg_request_auth_rejected;
    Alcotest.test_case "reply tampering rejected" `Quick seg_reply_tampering_rejected;
    Alcotest.test_case "registry whitelist" `Quick registry_whitelist;
    Alcotest.test_case "misbehavior denies future requests" `Quick misbehavior_denies_future_requests;
    Alcotest.test_case "EER renewal rate limited" `Quick renewal_rate_limited;
  ]
