(** Randomized end-to-end properties over generated topologies: for
    random internets, random SegR provisioning, and random EER
    workloads, the global invariants hold — every established EER
    carries traffic through all its routers; SegRs are never
    over-subscribed by EERs; forged traffic never traverses. *)

open Colibri_types
open Colibri_topology
open Colibri

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps

(* Provision SegRs between a random leaf pair of a random topology and
   return (deployment, src, dst) if a route could be built. *)
let build_world seed =
  let rng = Random.State.make [| seed; 0xC0FFEE |] in
  let topo = Topology_gen.random ~rng ~isds:2 ~cores:2 ~leaves:3 in
  let d = Deployment.create topo in
  let db = Deployment.seg_db d in
  let leaves = List.filter (fun a -> not (Topology.is_core topo a)) (Topology.ases topo) in
  let leaves = List.sort Ids.compare_asn leaves in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let src = pick leaves in
  let dst =
    let rec go () =
      let c = pick leaves in
      if Ids.equal_asn c src then go () else c
    in
    go ()
  in
  (* Up SegRs from src over every up segment; down SegRs to dst; core
     SegRs between all (up-end, down-start) core pairs. *)
  Segments.Db.up_segments db ~src
  |> List.iter (fun (u : Segments.t) ->
         ignore
           (Deployment.setup_segr d ~path:u.Segments.path ~kind:Reservation.Up
              ~max_bw:(gbps 1.) ~min_bw:(mbps 1.)));
  Segments.Db.down_segments db ~dst
  |> List.iter (fun (s : Segments.t) ->
         ignore
           (Deployment.request_down_segr d ~path:s.Segments.path ~max_bw:(gbps 1.)
              ~min_bw:(mbps 1.)));
  let ups = Segments.Db.up_segments db ~src |> List.map Segments.destination in
  let downs = Segments.Db.down_segments db ~dst |> List.map Segments.source in
  List.iter
    (fun u ->
      List.iter
        (fun dn ->
          if not (Ids.equal_asn u dn) then
            Segments.Db.core_segments db ~src:u ~dst:dn
            |> List.iteri (fun i (c : Segments.t) ->
                   if i < 2 then
                     ignore
                       (Deployment.setup_segr d ~path:c.Segments.path
                          ~kind:Reservation.Core ~max_bw:(gbps 2.) ~min_bw:(mbps 1.))))
        downs)
    ups;
  (d, src, dst)

let prop_established_eers_deliver =
  QCheck2.Test.make ~name:"e2e: established EERs deliver through all routers"
    ~count:10
    QCheck2.Gen.(1 -- 1000)
    (fun seed ->
      let d, src, dst = build_world seed in
      match
        Deployment.setup_eer_auto d ~src ~src_host:(Ids.host 1) ~dst
          ~dst_host:(Ids.host 2) ~bw:(mbps 50.)
      with
      | Error _ -> QCheck2.assume_fail () (* no route in this world: skip *)
      | Ok eer ->
          List.for_all
            (fun _ ->
              Deployment.advance d 0.001;
              match
                Deployment.send_data d ~src ~res_id:eer.key.res_id ~payload_len:500
              with
              | Ok { delivered = true; hops_traversed; _ } ->
                  hops_traversed = Path.length eer.path
              | _ -> false)
            [ 1; 2; 3; 4; 5 ])

let prop_no_segr_oversubscription =
  QCheck2.Test.make
    ~name:"e2e: Σ EER bandwidth over each SegR never exceeds the SegR" ~count:8
    QCheck2.Gen.(pair (1 -- 1000) (list_size (return 12) (10 -- 400)))
    (fun (seed, demands) ->
      let d, src, dst = build_world seed in
      let routes = Deployment.lookup_eer_routes d ~src ~dst in
      QCheck2.assume (routes <> []);
      (* Fire a burst of EER requests with random demands; some fail,
         that is fine — the invariant is about what was granted. *)
      List.iteri
        (fun i demand_mb ->
          ignore
            (Deployment.setup_eer_auto d ~src ~src_host:(Ids.host i) ~dst
               ~dst_host:(Ids.host 2)
               ~bw:(mbps (float_of_int demand_mb))))
        demands;
      (* Check every SegR of every route. *)
      let now = Deployment.now d in
      routes
      |> List.for_all (fun (r : Deployment.eer_route) ->
             r.segr_keys
             |> List.for_all (fun key ->
                    r.path
                    |> List.for_all (fun (hop : Path.hop) ->
                           match Cserv.transit_segr (Deployment.cserv d hop.asn) key with
                           | None -> true (* this AS not on that SegR *)
                           | Some ts ->
                               let booked =
                                 Backends.Backend_intf.eer_allocated_over
                                   (Cserv.backend (Deployment.cserv d hop.asn))
                                   ~segr:key
                               in
                               Bandwidth.(
                                 booked <=~ Reservation.segr_bw ts.segr ~now)))))

let prop_forged_packets_never_traverse =
  QCheck2.Test.make ~name:"e2e: packets with corrupted HVFs never deliver" ~count:8
    QCheck2.Gen.(pair (1 -- 1000) (0 -- 3))
    (fun (seed, flip_byte) ->
      let d, src, dst = build_world seed in
      match
        Deployment.setup_eer_auto d ~src ~src_host:(Ids.host 1) ~dst
          ~dst_host:(Ids.host 2) ~bw:(mbps 10.)
      with
      | Error _ -> QCheck2.assume_fail ()
      | Ok eer -> (
          match
            Test_dataplane.emit (Deployment.gateway d src) ~res_id:eer.key.res_id
              ~payload_len:0
          with
          | Error _ -> false
          | Ok raw ->
              let pkt = Result.get_ok (Packet.of_bytes raw) in
              (* Corrupt one byte of a middle hop's HVF. *)
              let i = Array.length pkt.Packet.hvfs / 2 in
              let hvf = Bytes.copy pkt.Packet.hvfs.(i) in
              Bytes.set hvf flip_byte
                (Char.chr (Char.code (Bytes.get hvf flip_byte) lxor 0x01));
              pkt.Packet.hvfs.(i) <- hvf;
              let raw = Packet.to_bytes pkt in
              (* Walk the routers: the packet must die at hop i. *)
              let rec walk idx = function
                | [] -> false (* delivered: forgery traversed! *)
                | (hop : Path.hop) :: rest -> (
                    match
                      Router.process_bytes (Deployment.router d hop.asn) ~raw
                        ~payload_len:0
                    with
                    | Ok _ -> walk (idx + 1) rest
                    | Error Router.Invalid_hvf -> idx = i
                    | Error _ -> false)
              in
              walk 0 pkt.Packet.path))

(* 10 000 simulated seconds of chaos: random topology, random loss and
   jitter on every link, periodic CServ crashes at the destination, and
   continuous renewal churn (the managed EER renews every ~8 s, the
   managed SegR every ~210 s, both degrading and recovering as faults
   dictate). Afterwards every invariant must close: no in-flight
   requests, every AS's admission state audit-clean (no reservation
   leaks), and every tracked message accounted for —
   sent = delivered + lost. *)
let prop_chaos_soak =
  QCheck2.Test.make ~name:"e2e: 10k-second chaos soak with renewal churn" ~count:3
    QCheck2.Gen.(pair (1 -- 1000) (float_range 0. 0.08))
    (fun (seed, loss) ->
      let d, src, dst = build_world seed in
      let faults = Net.Fault.create ~seed:(seed + 13) () in
      Net.Fault.set_default faults (Net.Fault.plan ~loss ~jitter:0.002 ());
      for k = 0 to 9 do
        Net.Fault.crash_server faults ~asn:dst
          ~at:((float_of_int k *. 997.) +. 100.)
          ~duration:25.
      done;
      Deployment.attach_network ~faults ~retry_seed:(seed + 99) d;
      match Deployment.lookup_eer_routes d ~src ~dst with
      | [] -> QCheck2.assume_fail ()
      | route :: _ -> (
          match
            Deployment.setup_eer_sync d ~route ~src_host:(Ids.host 1)
              ~dst_host:(Ids.host 2) ~bw:(mbps 20.)
          with
          | Error _ -> QCheck2.assume_fail ()
          | Ok eer ->
              let m_eer =
                Deployment.auto_renew_eer d ~key:eer.key ~route
                  ~src_host:(Ids.host 1) ~dst_host:(Ids.host 2) ~bw:(mbps 20.)
              in
              let m_segr =
                match route.segr_keys with
                | k :: _ ->
                    Result.to_option
                      (Deployment.auto_renew_segr d ~key:k ~max_bw:(gbps 1.)
                         ~min_bw:(mbps 1.))
                | [] -> None
              in
              Deployment.advance d 10_000.;
              (* Stop the machines, then drain in-flight requests and
                 duplicates before checking the invariants. *)
              Result.iter Deployment.stop_renewal m_eer;
              Option.iter Deployment.stop_renewal m_segr;
              Deployment.advance d 1_000.;
              let cn = Deployment.control_net d in
              Retry.pending (Deployment.retrier d) = 0
              && (match Deployment.audit_all d with
                 | [] -> true
                 | errs ->
                     List.iter (fun e -> Printf.eprintf "SOAK AUDIT: %s\n%!" e) errs;
                     false)
              && Control_net.sent_count cn
                 = Control_net.delivered_count cn + Control_net.lost_count cn))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_established_eers_deliver;
    QCheck_alcotest.to_alcotest prop_no_segr_oversubscription;
    QCheck_alcotest.to_alcotest prop_forged_packets_never_traverse;
    QCheck_alcotest.to_alcotest prop_chaos_soak;
  ]
