(** Tests for the admission algorithms (§4.7): bounded-tube-fairness
    SegR admission with memoized aggregates, and constant-time EER
    admission, including the transfer-AS proportional-sharing rule. *)

open Colibri_types

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps

(* One 10 Gbps interface pair (1 → 2); Colibri share 0.8 → 8 Gbps. *)
let capacity _ = gbps 10.
let share = 0.8
let colibri_cap = 8e9

let asn n = Ids.asn ~isd:1 ~num:n
let key src id : Ids.res_key = { src_as = asn src; res_id = id }

let mk () = Backends.Ntube.Seg.create ~capacity ~share ()

let admit ?(src = 1) ?(version = 1) ?(demand = gbps 1.) ?(min_bw = mbps 1.)
    ?(ingress = 1) ?(egress = 2) ?(exp_time = 300.) ?(now = 0.) t k =
  Backends.Ntube.Seg.admit t ~key:k ~version ~src:(asn src) ~ingress ~egress ~demand
    ~min_bw ~exp_time ~now

let granted_bps = function
  | Backends.Ntube.Granted bw -> Bandwidth.to_bps bw
  | Backends.Ntube.Denied _ -> Alcotest.fail "expected grant"

let seg_first_request_gets_demand () =
  let t = mk () in
  let g = granted_bps (admit t (key 1 1) ~demand:(gbps 1.)) in
  Alcotest.(check (float 1.)) "full demand granted" 1e9 g;
  Alcotest.(check int) "recorded" 1 (Backends.Ntube.Seg.count t)

let seg_below_min_denied_and_stateless () =
  let t = mk () in
  (* Fill the egress almost completely. *)
  ignore (admit t (key 1 1) ~demand:(gbps 100.) ~min_bw:(mbps 1.));
  let before = Backends.Ntube.Seg.count t in
  match admit t (key 2 2) ~src:2 ~demand:(gbps 8.) ~min_bw:(gbps 7.9) with
  | Backends.Ntube.Granted _ -> Alcotest.fail "should be denied"
  | Backends.Ntube.Denied { available } ->
      Alcotest.(check bool) "some bandwidth quoted" true
        (Bandwidth.to_bps available >= 0.);
      Alcotest.(check int) "no state left" before (Backends.Ntube.Seg.count t)

let seg_sum_never_exceeds_capacity () =
  let t = mk () in
  let total = ref 0. in
  for i = 1 to 50 do
    match admit t (key i i) ~src:i ~demand:(gbps 2.) ~min_bw:(mbps 0.001) with
    | Backends.Ntube.Granted bw -> total := !total +. Bandwidth.to_bps bw
    | Backends.Ntube.Denied _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "sum %.2e ≤ cap %.2e" !total colibri_cap)
    true
    (!total <= colibri_cap +. 1.);
  Alcotest.(check (float 1e3)) "allocated counter agrees" !total
    (Bandwidth.to_bps (Backends.Ntube.Seg.allocated_on t ~egress:2))

let seg_botnet_size_independence () =
  (* Grants are fixed until renewal (§4.2), so fairness re-equilibrates
     at SegR-lifetime granularity: a flooding source can fill the link
     for at most one lifetime (≤ 5 min), after which competing demand
     is admitted with its proportional share. Two properties checked:
     (i) the flood can never exceed the capacity (no amplification by
     reservation count — "botnet-size independence" of the total), and
     (ii) after the renewal boundary a benign AS obtains bandwidth. *)
  let t = mk () in
  let attacker_total = ref 0. in
  for i = 1 to 100 do
    match admit t (key 666 i) ~src:666 ~demand:(gbps 8.) ~min_bw:(mbps 0.001) with
    | Backends.Ntube.Granted bw -> attacker_total := !attacker_total +. Bandwidth.to_bps bw
    | Backends.Ntube.Denied _ -> ()
  done;
  Alcotest.(check bool) "flood bounded by capacity" true
    (!attacker_total <= colibri_cap +. 1.);
  (* During the flood's lifetime the benign AS may be refused — the
     transient the paper bounds by the 5-minute SegR lifetime. *)
  (* At t=301 the flood expired; the benign AS gets served. *)
  (match
     admit t (key 7 1000) ~src:7 ~demand:(gbps 1.) ~min_bw:(mbps 0.001)
       ~exp_time:601. ~now:301.
   with
  | Backends.Ntube.Granted bw ->
      Alcotest.(check bool) "benign served after renewal boundary" true
        (Bandwidth.to_bps bw > 0.)
  | Backends.Ntube.Denied _ -> Alcotest.fail "benign AS starved after expiry");
  (* The attacker renewing against the benign AS's standing demand now
     gets a squeezed share, not the whole link. *)
  match
    admit t (key 666 200) ~src:666 ~demand:(gbps 8.) ~min_bw:(mbps 0.001)
      ~exp_time:601. ~now:301.
  with
  | Backends.Ntube.Granted bw ->
      Alcotest.(check bool) "attacker renewal leaves benign share intact" true
        (Bandwidth.to_bps bw
        <= colibri_cap -. 1e9 +. 1.)
  | Backends.Ntube.Denied _ -> ()

let seg_group_capped_by_ingress () =
  (* Rule 1: total demand from one ingress is limited by its capacity —
     many sources behind one ingress cannot over-claim. *)
  let t = mk () in
  let sum = ref 0. in
  for i = 1 to 20 do
    match admit t (key i i) ~src:i ~demand:(gbps 10.) ~min_bw:(mbps 0.001) ~ingress:1 with
    | Backends.Ntube.Granted bw -> sum := !sum +. Bandwidth.to_bps bw
    | Backends.Ntube.Denied _ -> ()
  done;
  Alcotest.(check bool) "ingress-capped" true (!sum <= colibri_cap +. 1.)

let seg_duplicate_version_denied () =
  let t = mk () in
  ignore (admit t (key 1 1) ~version:1);
  match admit t (key 1 1) ~version:1 with
  | Backends.Ntube.Denied _ -> ()
  | Backends.Ntube.Granted _ -> Alcotest.fail "duplicate (key, version) admitted"

let seg_set_granted_shrinks () =
  let t = mk () in
  ignore (admit t (key 1 1) ~demand:(gbps 2.));
  (* Backward pass: path-wide minimum was lower. *)
  (match Backends.Ntube.Seg.set_granted t ~key:(key 1 1) ~version:1 ~granted:(gbps 1.) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (float 1.)) "allocation shrunk" 1e9
    (Bandwidth.to_bps (Backends.Ntube.Seg.allocated_on t ~egress:2));
  (match Backends.Ntube.Seg.granted_of t ~key:(key 1 1) ~version:1 with
  | Some bw -> Alcotest.(check (float 1.)) "entry updated" 1e9 (Bandwidth.to_bps bw)
  | None -> Alcotest.fail "entry missing");
  (* Raising is refused. *)
  match Backends.Ntube.Seg.set_granted t ~key:(key 1 1) ~version:1 ~granted:(gbps 5.) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "raise accepted"

let seg_remove_releases () =
  let t = mk () in
  ignore (admit t (key 1 1) ~demand:(gbps 8.) ~min_bw:(mbps 1.));
  Backends.Ntube.Seg.remove t ~key:(key 1 1) ~version:1;
  Alcotest.(check int) "empty" 0 (Backends.Ntube.Seg.count t);
  Alcotest.(check (float 1e-3)) "allocation released" 0.
    (Bandwidth.to_bps (Backends.Ntube.Seg.allocated_on t ~egress:2));
  (* Idempotent. *)
  Backends.Ntube.Seg.remove t ~key:(key 1 1) ~version:1;
  (* Full capacity available again. *)
  let g = granted_bps (admit t (key 2 2) ~src:2 ~demand:(gbps 8.) ~min_bw:(gbps 6.)) in
  Alcotest.(check bool) "capacity recovered" true (g >= 6e9)

let seg_expiry_releases () =
  let t = mk () in
  ignore (admit t (key 1 1) ~demand:(gbps 8.) ~min_bw:(mbps 1.) ~exp_time:300. ~now:0.);
  (* After expiry, a new admission sweeping at now=301 sees free capacity. *)
  let g =
    granted_bps
      (admit t (key 2 2) ~src:2 ~demand:(gbps 8.) ~min_bw:(gbps 6.) ~exp_time:600.
         ~now:301.)
  in
  Alcotest.(check bool) "expired SegR released" true (g >= 6e9);
  Alcotest.(check int) "swept" 1 (Backends.Ntube.Seg.count t)

let seg_local_iface_unbounded () =
  (* Ingress 0 (local origin) has no ingress cap; egress still caps. *)
  let t = mk () in
  let g = granted_bps (admit t (key 1 1) ~ingress:0 ~demand:(gbps 20.) ~min_bw:(mbps 1.)) in
  Alcotest.(check bool) "egress caps local traffic" true (g <= colibri_cap +. 1.)

let prop_seg_invariant_allocated_le_capacity =
  QCheck2.Test.make
    ~name:"seg admission: Σ grants per egress ≤ Colibri capacity (random ops)"
    ~count:30
    QCheck2.Gen.(list_size (return 200) (tup4 (1 -- 8) (1 -- 4) (1 -- 1000) (1 -- 3)))
    (fun ops ->
      let t = mk () in
      let i = ref 0 in
      List.for_all
        (fun (src, egress, demand_mb, op) ->
          incr i;
          let k = key src !i in
          (match op with
          | 1 | 2 ->
              ignore
                (admit t k ~src ~egress ~demand:(mbps (float_of_int demand_mb))
                   ~min_bw:(mbps 0.001))
          | _ -> Backends.Ntube.Seg.remove t ~key:(key src (max 1 (!i - 5))) ~version:1);
          List.for_all
            (fun eg ->
              Bandwidth.to_bps (Backends.Ntube.Seg.allocated_on t ~egress:eg)
              <= colibri_cap +. 1.)
            [ 1; 2; 3; 4 ])
        ops)

(* ---------- EER admission ---------- *)

let seg_a : Ids.res_key = { src_as = asn 100; res_id = 1 }
let seg_b : Ids.res_key = { src_as = asn 200; res_id = 1 }

let eer_admit ?(version = 1) ?(segrs = [ (seg_a, gbps 1.) ]) ?via_up
    ?(demand = mbps 100.) ?(exp_time = 16.) ?(now = 0.) t k =
  Backends.Ntube.Eer.admit t ~key:k ~version ~segrs ~via_up ~demand ~exp_time ~now

let eer_fits_and_fills () =
  let t = Backends.Ntube.Eer.create () in
  (* Ten 100 Mbps EERs fit a 1 Gbps SegR; the eleventh does not. *)
  for i = 1 to 10 do
    match eer_admit t (key 1 i) with
    | Backends.Ntube.Granted _ -> ()
    | Backends.Ntube.Denied _ -> Alcotest.failf "EER %d should fit" i
  done;
  Alcotest.(check (float 1e3)) "fully allocated" 1e9
    (Bandwidth.to_bps (Backends.Ntube.Eer.allocated_over t seg_a));
  match eer_admit t (key 1 11) with
  | Backends.Ntube.Denied { available } ->
      Alcotest.(check bool) "nothing left" true (Bandwidth.to_bps available < 1e6)
  | Backends.Ntube.Granted _ -> Alcotest.fail "over-allocation"

let eer_multi_segr_min () =
  (* An EER over two SegRs is constrained by the tighter one. *)
  let t = Backends.Ntube.Eer.create () in
  let segrs = [ (seg_a, gbps 1.); (seg_b, mbps 300.) ] in
  (match eer_admit t (key 1 1) ~segrs ~demand:(mbps 250.) with
  | Backends.Ntube.Granted _ -> ()
  | Backends.Ntube.Denied _ -> Alcotest.fail "250 Mb should fit");
  match eer_admit t (key 1 2) ~segrs ~demand:(mbps 100.) with
  | Backends.Ntube.Denied { available } ->
      Alcotest.(check bool) "limited by smaller SegR" true
        (Bandwidth.to_bps available <= 50e6 +. 1.)
  | Backends.Ntube.Granted _ -> Alcotest.fail "should exceed seg_b"

let eer_versions_count_max () =
  (* Renewal with the same bandwidth must not double-book (§4.2):
     versions of one EER contribute their maximum. *)
  let t = Backends.Ntube.Eer.create () in
  ignore (eer_admit t (key 1 1) ~version:1 ~demand:(mbps 600.));
  (match eer_admit t (key 1 1) ~version:2 ~demand:(mbps 600.) with
  | Backends.Ntube.Granted _ -> ()
  | Backends.Ntube.Denied _ -> Alcotest.fail "renewal at same bw must fit");
  Alcotest.(check (float 1e3)) "no double booking" 600e6
    (Bandwidth.to_bps (Backends.Ntube.Eer.allocated_over t seg_a));
  (* A version increase books only the delta. *)
  (match eer_admit t (key 1 1) ~version:3 ~demand:(mbps 900.) with
  | Backends.Ntube.Granted _ -> ()
  | Backends.Ntube.Denied _ -> Alcotest.fail "delta should fit");
  Alcotest.(check (float 1e3)) "max counted" 900e6
    (Bandwidth.to_bps (Backends.Ntube.Eer.allocated_over t seg_a))

let eer_version_expiry_releases () =
  let t = Backends.Ntube.Eer.create () in
  ignore (eer_admit t (key 1 1) ~version:1 ~demand:(mbps 800.) ~exp_time:16. ~now:0.);
  (* At t=20 the version expired; new flows can use the space. *)
  match eer_admit t (key 2 2) ~version:1 ~demand:(mbps 800.) ~exp_time:36. ~now:20. with
  | Backends.Ntube.Granted _ -> ()
  | Backends.Ntube.Denied _ -> Alcotest.fail "expired EER still booked"

let eer_remove_version () =
  let t = Backends.Ntube.Eer.create () in
  ignore (eer_admit t (key 1 1) ~version:1 ~demand:(mbps 800.));
  Backends.Ntube.Eer.remove_version t ~key:(key 1 1) ~version:1 ~now:0.;
  Alcotest.(check (float 1e-3)) "released" 0.
    (Bandwidth.to_bps (Backends.Ntube.Eer.allocated_over t seg_a))

let eer_transfer_proportional_sharing () =
  (* Transfer AS: two up-SegRs (1 Gbps each) compete for one 1 Gbps
     core SegR. When oversubscribed, each up-SegR gets a share
     proportional to its demand rather than first-come-takes-all. *)
  let t = Backends.Ntube.Eer.create () in
  let core : Ids.res_key = { src_as = asn 300; res_id = 9 } in
  let up1 = seg_a and up2 = seg_b in
  let admit_via up k demand =
    Backends.Ntube.Eer.admit t ~key:k ~version:1
      ~segrs:[ (up, gbps 1.); (core, gbps 1.) ]
      ~via_up:(Some (core, up, gbps 1.))
      ~demand ~exp_time:16. ~now:0.
  in
  (* up1's EERs fill 800 Mbps. *)
  for i = 1 to 8 do
    ignore (admit_via up1 (key 1 i) (mbps 100.))
  done;
  (* up2 demands 600 Mbps; the core is now oversubscribed, so up2 gets
     its proportional share rather than nothing. *)
  let up2_granted = ref 0. in
  for i = 1 to 6 do
    match admit_via up2 (key 2 i) (mbps 100.) with
    | Backends.Ntube.Granted bw -> up2_granted := !up2_granted +. Bandwidth.to_bps bw
    | Backends.Ntube.Denied _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "up2 got a positive share (%.0f Mbps)" (!up2_granted /. 1e6))
    true
    (!up2_granted > 0.);
  (* Total across both up-SegRs never exceeds the core SegR. *)
  let total = Bandwidth.to_bps (Backends.Ntube.Eer.allocated_over t core) in
  Alcotest.(check bool)
    (Printf.sprintf "core not over-allocated (%.0f Mbps)" (total /. 1e6))
    true (total <= 1e9 +. 1.)

let prop_eer_never_over_allocates =
  QCheck2.Test.make ~name:"eer admission: Σ over a SegR ≤ SegR bandwidth" ~count:50
    QCheck2.Gen.(list_size (return 100) (pair (1 -- 30) (1 -- 400)))
    (fun ops ->
      let t = Backends.Ntube.Eer.create () in
      let segr_bw = gbps 1. in
      let i = ref 0 in
      List.for_all
        (fun (flow, demand_mb) ->
          incr i;
          ignore
            (Backends.Ntube.Eer.admit t ~key:(key 1 flow) ~version:!i
               ~segrs:[ (seg_a, segr_bw) ] ~via_up:None
               ~demand:(mbps (float_of_int demand_mb))
               ~exp_time:16. ~now:0.);
          Bandwidth.to_bps (Backends.Ntube.Eer.allocated_over t seg_a) <= 1e9 +. 1.)
        ops)

let suite =
  [
    Alcotest.test_case "SegR: first request granted" `Quick seg_first_request_gets_demand;
    Alcotest.test_case "SegR: below-min denied statelessly" `Quick seg_below_min_denied_and_stateless;
    Alcotest.test_case "SegR: Σ grants ≤ capacity" `Quick seg_sum_never_exceeds_capacity;
    Alcotest.test_case "SegR: botnet-size independence" `Quick seg_botnet_size_independence;
    Alcotest.test_case "SegR: ingress capacity caps group" `Quick seg_group_capped_by_ingress;
    Alcotest.test_case "SegR: duplicate version denied" `Quick seg_duplicate_version_denied;
    Alcotest.test_case "SegR: set_granted shrinks only" `Quick seg_set_granted_shrinks;
    Alcotest.test_case "SegR: remove releases" `Quick seg_remove_releases;
    Alcotest.test_case "SegR: expiry releases" `Quick seg_expiry_releases;
    Alcotest.test_case "SegR: local ingress unbounded" `Quick seg_local_iface_unbounded;
    QCheck_alcotest.to_alcotest prop_seg_invariant_allocated_le_capacity;
    Alcotest.test_case "EER: fits and fills" `Quick eer_fits_and_fills;
    Alcotest.test_case "EER: multi-SegR minimum" `Quick eer_multi_segr_min;
    Alcotest.test_case "EER: versions count max (§4.2)" `Quick eer_versions_count_max;
    Alcotest.test_case "EER: version expiry releases" `Quick eer_version_expiry_releases;
    Alcotest.test_case "EER: remove version" `Quick eer_remove_version;
    Alcotest.test_case "EER: transfer proportional sharing" `Quick eer_transfer_proportional_sharing;
    QCheck_alcotest.to_alcotest prop_eer_never_over_allocates;
  ]
