(** Tests for the distributed CServ (Appendix D). *)

open Colibri_types
open Colibri

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps
let asn n = Ids.asn ~isd:1 ~num:n
let key src id : Ids.res_key = { src_as = asn src; res_id = id }

let capacity _ = gbps 10.

let segr_of ingress id : Ids.res_key = { src_as = asn (100 + ingress); res_id = id }

(* Mirror a workload into a monolithic Backends.Ntube.Eer and a Distributed
   service; decisions must coincide. *)
let decisions_match () =
  let mono = Backends.Ntube.Eer.create () in
  let dist = Distributed.create ~capacity () in
  let rng = Random.State.make [| 5 |] in
  let mismatches = ref 0 in
  for i = 1 to 2000 do
    let ingress = 1 + Random.State.int rng 4 in
    let segr = segr_of ingress (1 + Random.State.int rng 3) in
    let flow = key (Random.State.int rng 50) i in
    let demand = mbps (1. +. Random.State.float rng 99.) in
    let m =
      Backends.Ntube.Eer.admit mono ~key:flow ~version:1 ~segrs:[ (segr, gbps 1.) ]
        ~via_up:None ~demand ~exp_time:16. ~now:0.
    in
    let d =
      Distributed.admit_eer dist ~key:flow ~version:1 ~segrs:[ (segr, gbps 1.) ]
        ~via_up:None ~segr_ingress:ingress ~demand ~exp_time:16. ~now:0.
    in
    let same =
      match (m, d) with
      | Backends.Ntube.Granted a, Backends.Ntube.Granted b -> Bandwidth.equal a b
      | Backends.Ntube.Denied _, Backends.Ntube.Denied _ -> true
      | _ -> false
    in
    if not same then incr mismatches
  done;
  Alcotest.(check int) "identical decisions" 0 !mismatches

let load_spreads_across_sub_services () =
  let dist = Distributed.create ~capacity () in
  for ingress = 1 to 4 do
    for i = 1 to 100 do
      ignore
        (Distributed.admit_eer dist
           ~key:(key ingress ((ingress * 1000) + i))
           ~version:1
           ~segrs:[ (segr_of ingress 1, gbps 10.) ]
           ~via_up:None ~segr_ingress:ingress ~demand:(mbps 1.) ~exp_time:16.
           ~now:0.)
    done
  done;
  let services = Distributed.ingress_services dist in
  Alcotest.(check int) "one sub-service per ingress" 4 (List.length services);
  List.iter
    (fun (iface, handled) ->
      Alcotest.(check int) (Printf.sprintf "iface %d handled its share" iface) 100 handled)
    services

let same_segr_pinned_to_one_service () =
  (* The balancer requirement: all EEReqs over the same SegR go to the
     same sub-service even if the claimed ingress differs. *)
  let dist = Distributed.create ~capacity () in
  let segr = segr_of 1 7 in
  ignore
    (Distributed.admit_eer dist ~key:(key 1 1) ~version:1 ~segrs:[ (segr, mbps 100.) ]
       ~via_up:None ~segr_ingress:1 ~demand:(mbps 60.) ~exp_time:16. ~now:0.);
  (* Second request over the same SegR: must see the existing 60 Mbps
     allocation (i.e., land on the same sub-service) and be denied. *)
  match
    Distributed.admit_eer dist ~key:(key 2 2) ~version:1 ~segrs:[ (segr, mbps 100.) ]
      ~via_up:None ~segr_ingress:2 (* lying/ambiguous ingress *)
      ~demand:(mbps 60.) ~exp_time:16. ~now:0.
  with
  | Backends.Ntube.Denied _ -> ()
  | Backends.Ntube.Granted _ -> Alcotest.fail "accounting split across sub-services"

let coordinator_handles_segreqs () =
  let dist = Distributed.create ~capacity () in
  let req : Backends.Backend_intf.seg_request =
    {
      key = key 1 1;
      version = 1;
      src = asn 1;
      ingress = 1;
      egress = 2;
      demand = gbps 1.;
      min_bw = mbps 1.;
      exp_time = 300.;
    }
  in
  match Distributed.admit_seg dist ~req ~now:0. with
  | Backends.Ntube.Granted _ -> ()
  | Backends.Ntube.Denied _ -> Alcotest.fail "coordinator refused a trivial SegR"

let suite =
  [
    Alcotest.test_case "decisions match monolithic CServ" `Quick decisions_match;
    Alcotest.test_case "load spreads across sub-services" `Quick load_spreads_across_sub_services;
    Alcotest.test_case "same SegR pinned to one service" `Quick same_segr_pinned_to_one_service;
    Alcotest.test_case "coordinator handles SegReqs" `Quick coordinator_handles_segreqs;
  ]
