(** Tests for the distributed CServ (Appendix D) and the data-plane
    sharding used for multi-core scaling (Fig. 6). *)

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

(* ---------- Data-plane sharding ---------- *)

let clock () = 0.

let mk_eer res_id : Reservation.eer =
  {
    key = { src_as = asn 1; res_id };
    path =
      [
        Path.hop ~asn:(asn 1) ~ingress:0 ~egress:1;
        Path.hop ~asn:(asn 2) ~ingress:1 ~egress:0;
      ];
    src_host = Ids.host 1;
    dst_host = Ids.host 2;
    segr_keys = [];
    versions = [];
  }

let version : Reservation.version = { version = 1; bw = mbps 100.; exp_time = 1000. }

let register_n (sg : Dataplane_shard.Sharded_gateway.t) n =
  for res_id = 1 to n do
    let eer = mk_eer res_id in
    eer.versions <- [ version ];
    match
      Dataplane_shard.Sharded_gateway.register sg ~eer ~version
        ~sigmas:[ Bytes.make 16 'a'; Bytes.make 16 'b' ]
    with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done

let sharded_gateway_routes_correctly () =
  let sg = Dataplane_shard.Sharded_gateway.create ~clock ~shards:4 (asn 1) in
  register_n sg 100;
  Alcotest.(check int) "all registered" 100
    (Dataplane_shard.Sharded_gateway.reservation_count sg);
  (* Every reservation reachable through the sharded send. *)
  for res_id = 1 to 100 do
    match Dataplane_shard.Sharded_gateway.send sg ~res_id ~payload_len:100 with
    | Ok (pkt, _) -> Alcotest.(check int) "right reservation" res_id pkt.Packet.res_info.res_id
    | Error e -> Alcotest.failf "send %d failed: %a" res_id Gateway.pp_drop_reason e
  done

let sharded_gateway_balanced () =
  let sg = Dataplane_shard.Sharded_gateway.create ~clock ~shards:8 (asn 1) in
  register_n sg 8000;
  let lo, hi = Dataplane_shard.Sharded_gateway.balance sg in
  Alcotest.(check bool) (Printf.sprintf "balanced (%d..%d)" lo hi) true
    (lo > 700 && hi < 1300)

let sharded_gateway_shared_nothing () =
  (* A reservation lives in exactly one shard: removing the others'
     state cannot affect it — verified by sending through the computed
     shard directly. *)
  let sg = Dataplane_shard.Sharded_gateway.create ~clock ~shards:4 (asn 1) in
  register_n sg 16;
  for res_id = 1 to 16 do
    let hits = ref 0 in
    for s = 0 to 3 do
      match
        Gateway.send (Dataplane_shard.Sharded_gateway.shard sg s) ~res_id ~payload_len:10
      with
      | Ok _ -> incr hits
      | Error _ -> ()
    done;
    Alcotest.(check int) (Printf.sprintf "res %d in exactly one shard" res_id) 1 !hits
  done

let suite =
  [
    Alcotest.test_case "decisions match monolithic CServ" `Quick decisions_match;
    Alcotest.test_case "load spreads across sub-services" `Quick load_spreads_across_sub_services;
    Alcotest.test_case "same SegR pinned to one service" `Quick same_segr_pinned_to_one_service;
    Alcotest.test_case "coordinator handles SegReqs" `Quick coordinator_handles_segreqs;
    Alcotest.test_case "sharded gateway routes correctly" `Quick sharded_gateway_routes_correctly;
    Alcotest.test_case "sharded gateway balanced" `Quick sharded_gateway_balanced;
    Alcotest.test_case "sharded gateway shared-nothing" `Quick sharded_gateway_shared_nothing;
  ]
