(** Unit tests for reservation state and lifecycle (§4.2): version
    validity, SegR activation and EER version semantics. *)

open Colibri_types
open Colibri

let asn n = Ids.asn ~isd:1 ~num:n
let mbps = Bandwidth.of_mbps

let path : Path.t =
  [
    Path.hop ~asn:(asn 1) ~ingress:0 ~egress:1;
    Path.hop ~asn:(asn 2) ~ingress:1 ~egress:0;
  ]

let mk_segr ?active ?pending () : Reservation.segr =
  {
    key = { src_as = asn 1; res_id = 1 };
    kind = Reservation.Up;
    path;
    active;
    pending;
    tokens = [];
    allowed_ases = None;
  }

let v n bw exp : Reservation.version = { version = n; bw; exp_time = exp }

let lifetimes_match_paper () =
  Alcotest.(check (float 0.)) "SegR ≈ 5 min" 300. Reservation.segr_lifetime;
  Alcotest.(check (float 0.)) "EER = 16 s" 16. Reservation.eer_lifetime

let segr_bw_and_expiry () =
  let s = mk_segr ~active:(v 1 (mbps 100.) 300.) () in
  Alcotest.(check (float 1.)) "active bw" 100e6
    (Bandwidth.to_bps (Reservation.segr_bw s ~now:0.));
  Alcotest.(check (float 1.)) "expired bw is 0" 0.
    (Bandwidth.to_bps (Reservation.segr_bw s ~now:301.));
  Alcotest.(check bool) "not yet expired" false (Reservation.segr_expired s ~now:0.);
  Alcotest.(check bool) "expired" true (Reservation.segr_expired s ~now:301.);
  (* A pending version contributes no bandwidth until activation. *)
  let p = mk_segr ~pending:(v 1 (mbps 100.) 300.) () in
  Alcotest.(check (float 1.)) "pending holds no bw" 0.
    (Bandwidth.to_bps (Reservation.segr_bw p ~now:0.))

let segr_activation () =
  let s = mk_segr ~active:(v 1 (mbps 100.) 300.) ~pending:(v 2 (mbps 50.) 600.) () in
  (match Reservation.activate s ~now:0. with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "v2 active" 2 (Option.get s.active).Reservation.version;
  Alcotest.(check bool) "pending cleared" true (s.pending = None);
  (* No pending: error. *)
  (match Reservation.activate s ~now:0. with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "activated nothing");
  (* Expired pending: error. *)
  let st = mk_segr ~pending:(v 2 (mbps 50.) 10.) () in
  match Reservation.activate st ~now:20. with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "activated expired pending"

let mk_eer versions : Reservation.eer =
  {
    key = { src_as = asn 1; res_id = 2 };
    path;
    src_host = Ids.host 1;
    dst_host = Ids.host 2;
    segr_keys = [];
    versions;
  }

let eer_version_semantics () =
  let e = mk_eer [ v 1 (mbps 10.) 16.; v 2 (mbps 30.) 32. ] in
  (* Max, not sum (§4.2/§4.8). *)
  Alcotest.(check (float 1.)) "bw is max" 30e6
    (Bandwidth.to_bps (Reservation.eer_bw e ~now:0.));
  (* Current version = newest valid. *)
  (match Reservation.eer_current_version e ~now:0. with
  | Some cv -> Alcotest.(check int) "v2 current" 2 cv.version
  | None -> Alcotest.fail "no current version");
  (* After v2's expiry nothing remains (v1 expired earlier). *)
  Alcotest.(check bool) "expired" true (Reservation.eer_expired e ~now:33.);
  (* Version numbers must strictly increase. *)
  let e2 = mk_eer [ v 3 (mbps 10.) 16. ] in
  (match Reservation.add_eer_version e2 (v 3 (mbps 10.) 20.) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate version accepted");
  match Reservation.add_eer_version e2 (v 4 (mbps 10.) 20.) with
  | Ok () -> Alcotest.(check int) "added" 2 (List.length e2.versions)
  | Error e -> Alcotest.fail e

let eer_valid_versions_sorted_and_pruned () =
  let e = mk_eer [ v 1 (mbps 10.) 5.; v 3 (mbps 10.) 40.; v 2 (mbps 10.) 30. ] in
  let vs = Reservation.eer_valid_versions e ~now:10. in
  Alcotest.(check (list int)) "newest first, expired pruned" [ 3; 2 ]
    (List.map (fun (x : Reservation.version) -> x.version) vs)

let res_info_construction () =
  let e = mk_eer [ v 1 (mbps 10.) 16. ] in
  let ri = Reservation.res_info_of_eer e (List.hd e.versions) in
  Alcotest.(check int) "res id" 2 ri.res_id;
  Alcotest.(check (float 1.)) "bw" 10e6 (Bandwidth.to_bps ri.bw);
  let ei = Reservation.eer_info_of_eer e in
  Alcotest.(check int) "src host" 1 ei.src_host.addr;
  Alcotest.(check int) "dst host" 2 ei.dst_host.addr

let suite =
  [
    Alcotest.test_case "lifetimes match paper" `Quick lifetimes_match_paper;
    Alcotest.test_case "SegR bandwidth and expiry" `Quick segr_bw_and_expiry;
    Alcotest.test_case "SegR activation" `Quick segr_activation;
    Alcotest.test_case "EER version semantics" `Quick eer_version_semantics;
    Alcotest.test_case "EER versions sorted and pruned" `Quick eer_valid_versions_sorted_and_pruned;
    Alcotest.test_case "ResInfo construction" `Quick res_info_construction;
  ]
