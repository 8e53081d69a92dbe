(** Tests for the end-host stack (§3.2): automatic EER renewal, demand
    adjustment at renewal time, renewal failures once the underlay is
    gone, close semantics, and a flow that lives through 5 % loss. *)

open Colibri_types
open Colibri_topology
open Colibri
module G = Topology_gen.Two_isd

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps
let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* Deployment on the networked control plane (optionally under
   [faults]) with SegRs from S towards both of its cores, kept alive by
   the managed renewal machine so long runs don't lose the underlay,
   and a stack for host 1 in S with one flow to host 2 in Y1. *)
let rig ?(keep_segrs_alive = true) ?faults ?(bw = mbps 10.) () =
  let d = Deployment.create (Topology_gen.two_isd ()) in
  Deployment.attach_network ?faults d;
  Segments.Db.up_segments (Deployment.seg_db d) ~src:G.s
  |> List.iter (fun (u : Segments.t) ->
         let segr =
           ok
             (Deployment.setup_segr d ~path:u.Segments.path ~kind:Reservation.Up
                ~max_bw:(gbps 1.) ~min_bw:(mbps 1.))
         in
         if keep_segrs_alive then
           ignore
             (ok
                (Deployment.auto_renew_segr d ~key:segr.key ~max_bw:(gbps 1.)
                   ~min_bw:(mbps 1.))));
  let stack = Host_stack.create d ~asn:G.s ~host:(Ids.host 1) in
  (d, stack, ok (Host_stack.open_flow stack ~dst:G.y1 ~dst_host:(Ids.host 2) ~bw))

let flow_outlives_eer_lifetime () =
  let d, _, flow = rig ~bw:(mbps 20.) () in
  (* Run for 60 s — almost four EER lifetimes — sending periodically. *)
  let failures = ref 0 in
  for _ = 1 to 120 do
    Deployment.advance d 0.5;
    match Host_stack.send flow ~payload_len:500 with
    | Host_stack.Delivered -> ()
    | _ -> incr failures
  done;
  Alcotest.(check int) "no delivery failures over 60s" 0 !failures;
  Alcotest.(check bool)
    (Printf.sprintf "renewed automatically (%d times)" (Host_stack.renewals flow))
    true
    (Host_stack.renewals flow >= 3);
  Alcotest.(check int) "all packets delivered" 120 (Host_stack.delivered flow)

let bandwidth_adjusts_at_renewal () =
  let d, _, flow = rig () in
  Alcotest.(check (float 1e3)) "initial bw" 10e6
    (Bandwidth.to_bps (Host_stack.flow_bw flow));
  Host_stack.set_bandwidth flow (mbps 40.);
  (* After one renewal cycle the guarantee follows the demand. *)
  Deployment.advance d (Reservation.eer_lifetime +. 2.);
  Alcotest.(check bool) "renewed" true (Host_stack.renewals flow >= 1);
  Alcotest.(check (float 1e3)) "bw raised at renewal" 40e6
    (Bandwidth.to_bps (Host_stack.flow_bw flow))

let close_stops_renewal () =
  let d, stack, flow = rig () in
  Alcotest.(check int) "flow registered" 1 (Host_stack.open_flows stack);
  Host_stack.close flow;
  Alcotest.(check int) "flow unregistered" 0 (Host_stack.open_flows stack);
  Deployment.advance d (2. *. Reservation.eer_lifetime);
  Alcotest.(check int) "no renewals after close" 0 (Host_stack.renewals flow);
  Alcotest.(check bool) "sends refused after close" true
    (Host_stack.send flow ~payload_len:100 = Host_stack.Dropped_at_gateway)

let renewal_failure_counted_when_underlay_gone () =
  (* Without SegR keep-alive the underlay lapses after ~300 s; the
     stack's renewals then fail and are counted. *)
  let d, _, flow = rig ~keep_segrs_alive:false () in
  Deployment.advance d (Reservation.segr_lifetime +. 30.);
  Alcotest.(check bool) "renewal failures recorded" true
    (Host_stack.renewal_failures flow > 0);
  Alcotest.(check bool) "flow no longer delivers" true
    (Host_stack.send flow ~payload_len:100 <> Host_stack.Delivered)

let flow_survives_loss () =
  let faults = Net.Fault.create ~seed:7 () in
  Net.Fault.set_default faults (Net.Fault.plan ~loss:0.05 ());
  let d, _, flow = rig ~faults ~bw:(mbps 20.) () in
  Deployment.advance d 60.;
  Alcotest.(check bool) "control messages were lost" true
    (Control_net.lost_count (Deployment.control_net d) > 0);
  Alcotest.(check bool) "renewed through the loss" true (Host_stack.renewals flow >= 3);
  Alcotest.(check bool) "still delivers after 60 s under 5% loss" true
    (Host_stack.send flow ~payload_len:500 = Host_stack.Delivered);
  Alcotest.(check (list string)) "no leaked admission state" [] (Deployment.audit_all d)

let suite =
  [
    Alcotest.test_case "flow outlives EER lifetime" `Quick flow_outlives_eer_lifetime;
    Alcotest.test_case "bandwidth adjusts at renewal" `Quick bandwidth_adjusts_at_renewal;
    Alcotest.test_case "close stops renewal" `Quick close_stops_renewal;
    Alcotest.test_case "renewal failure when underlay gone" `Quick
      renewal_failure_counted_when_underlay_gone;
    Alcotest.test_case "flow survives 5% loss" `Quick flow_survives_loss;
  ]
