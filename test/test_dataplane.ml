(** Data-plane tests: gateway processing, border-router validation,
    and the full packet walk across a deployment — including the
    adversarial cases of §5 (bogus packets, replay, overuse,
    spoofing). *)

open Colibri_types
open Colibri_topology
open Colibri
module G = Topology_gen.Two_isd

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps

(* A deployment with one EER from S(h1) to D(h2) ready to send. *)
let rig ?(bw = mbps 100.) () =
  let d = Deployment.create (Topology_gen.two_isd ()) in
  let db = Deployment.seg_db d in
  let up = List.hd (Segments.Db.up_segments db ~src:G.s) in
  let _ =
    Result.get_ok
      (Deployment.setup_segr d ~path:up.Segments.path ~kind:Reservation.Up
         ~max_bw:(gbps 2.) ~min_bw:(mbps 10.))
  in
  let down = List.hd (Segments.Db.down_segments db ~dst:G.d) in
  let _ =
    Result.get_ok
      (Deployment.request_down_segr d ~path:down.Segments.path ~max_bw:(gbps 2.)
         ~min_bw:(mbps 10.))
  in
  let core_src = Path.destination up.Segments.path in
  let core_dst = Path.source down.Segments.path in
  let core = List.hd (Segments.Db.core_segments db ~src:core_src ~dst:core_dst) in
  let _ =
    Result.get_ok
      (Deployment.setup_segr d ~path:core.Segments.path ~kind:Reservation.Core
         ~max_bw:(gbps 5.) ~min_bw:(mbps 10.))
  in
  let eer =
    Result.get_ok
      (Deployment.setup_eer_auto d ~src:G.s ~src_host:(Ids.host 1) ~dst:G.d
         ~dst_host:(Ids.host 2) ~bw)
  in
  (d, eer)

(* One packet from [gw], copied out of its reusable output buffer. *)
let emit gw ~res_id ~payload_len : (bytes, Gateway.drop_reason) result =
  Gateway.send_bytes gw ~res_id ~payload_len
  |> Result.map (fun _egress -> Bytes.sub (Gateway.out gw) 0 (Gateway.out_len gw))

(* A rig packet's wire bytes, and their reference decoding to edit. *)
let rig_packet d (eer : Reservation.eer) ~payload_len =
  let raw =
    Result.get_ok (emit (Deployment.gateway d G.s) ~res_id:eer.key.res_id ~payload_len)
  in
  (raw, Result.get_ok (Packet.of_bytes raw))

let packets_delivered_end_to_end () =
  let d, eer = rig () in
  for i = 1 to 20 do
    match Deployment.send_data d ~src:G.s ~res_id:eer.key.res_id ~payload_len:1000 with
    | Ok del ->
        Alcotest.(check bool) (Printf.sprintf "packet %d delivered" i) true del.delivered;
        Alcotest.(check int) "traversed all ASes" (Path.length eer.path) del.hops_traversed
    | Error e -> Alcotest.failf "gateway drop: %a" Gateway.pp_drop_reason e
  done

let gateway_unknown_reservation () =
  let d, _ = rig () in
  match Deployment.send_data d ~src:G.s ~res_id:999 ~payload_len:100 with
  | Error Gateway.Unknown_reservation -> ()
  | _ -> Alcotest.fail "expected Unknown_reservation"

let gateway_rate_limits () =
  (* A 1 Mbps EER cannot push 10 Mbps through the gateway: the token
     bucket drops the excess (deterministic monitoring, §4.8). *)
  let d, eer = rig ~bw:(mbps 1.) () in
  let sent = ref 0 and dropped = ref 0 in
  (* 1 Mbps ≈ 119 pkt/s of 1048-byte wire packets; try 10× for 1 s of
     simulated time by advancing the clock manually. *)
  for i = 1 to 1200 do
    Deployment.advance d (1. /. 1200.);
    ignore i;
    match Deployment.send_data d ~src:G.s ~res_id:eer.key.res_id ~payload_len:1000 with
    | Ok _ -> incr sent
    | Error Gateway.Rate_exceeded -> incr dropped
    | Error e -> Alcotest.failf "unexpected: %a" Gateway.pp_drop_reason e
  done;
  Alcotest.(check bool) (Printf.sprintf "excess dropped (%d/%d)" !dropped 1200) true
    (!dropped > 800);
  Alcotest.(check bool) "conforming share passes" true (!sent > 50)

let gateway_expired_reservation () =
  let d, eer = rig () in
  Deployment.advance d (Reservation.eer_lifetime +. 1.);
  match Deployment.send_data d ~src:G.s ~res_id:eer.key.res_id ~payload_len:100 with
  | Error Gateway.Expired -> ()
  | _ -> Alcotest.fail "expected Expired"

let router_rejects_forged_hvf () =
  (* §5.1 "bogus Colibri traffic": random authenticators are filtered. *)
  let d, eer = rig () in
  let _, pkt = rig_packet d eer ~payload_len:0 in
  let forged = { pkt with Packet.hvfs = Array.map (fun _ -> Bytes.make 4 'x') pkt.Packet.hvfs } in
  let raw = Packet.to_bytes forged in
  let first_as = (List.hd eer.path).Path.asn in
  match Router.process_bytes (Deployment.router d first_as) ~raw ~payload_len:0 with
  | Error Router.Invalid_hvf -> ()
  | r ->
      Alcotest.failf "forged packet not dropped: %s"
        (match r with Ok _ -> "forwarded" | Error e -> Fmt.str "%a" Router.pp_drop_reason e)

let router_rejects_size_lie () =
  (* PktSize is authenticated (Eq. 6): a header claiming a smaller
     payload than actually carried fails validation — small-packet
     flooding cannot evade accounting (§4.8). *)
  let d, eer = rig () in
  let raw, _ = rig_packet d eer ~payload_len:100 in
  let first_as = (List.hd eer.path).Path.asn in
  (* The router derives actual size from the wire: lie about payload. *)
  match Router.process_bytes (Deployment.router d first_as) ~raw ~payload_len:1400 with
  | Error Router.Invalid_hvf -> ()
  | _ -> Alcotest.fail "size mismatch accepted"

let router_rejects_replay () =
  (* §5.1 framing: a captured packet replayed by an on-path adversary is
     suppressed by the duplicate filter. *)
  let d, eer = rig () in
  let raw, _ = rig_packet d eer ~payload_len:0 in
  let first_as = (List.hd eer.path).Path.asn in
  let r1 = Router.process_bytes (Deployment.router d first_as) ~raw ~payload_len:0 in
  Alcotest.(check bool) "original forwarded" true (Result.is_ok r1);
  match Router.process_bytes (Deployment.router d first_as) ~raw ~payload_len:0 with
  | Error Router.Duplicate -> ()
  | _ -> Alcotest.fail "replay not suppressed"

let router_rejects_expired_and_stale () =
  let d, eer = rig () in
  let raw, _ = rig_packet d eer ~payload_len:0 in
  let first_as = (List.hd eer.path).Path.asn in
  (* Beyond the freshness window but before expiry: stale. *)
  Deployment.advance d 10.;
  (match Router.process_bytes (Deployment.router d first_as) ~raw ~payload_len:0 with
  | Error Router.Stale_timestamp -> ()
  | _ -> Alcotest.fail "stale packet accepted");
  (* Beyond reservation expiry. *)
  Deployment.advance d 10.;
  match Router.process_bytes (Deployment.router d first_as) ~raw ~payload_len:0 with
  | Error Router.Expired_reservation -> ()
  | _ -> Alcotest.fail "expired packet accepted"

let router_blocklist_blocks () =
  let d, eer = rig () in
  let first_as = (List.hd eer.path).Path.asn in
  Monitor.Blocklist.block (Router.blocklist (Deployment.router d first_as)) G.s
    ~duration:None;
  match Deployment.send_data d ~src:G.s ~res_id:eer.key.res_id ~payload_len:0 with
  | Ok { delivered = false; dropped_at = Some (asn, Router.Blocked_source); _ } ->
      Alcotest.(check bool) "dropped at first AS" true (Ids.equal_asn asn first_as)
  | _ -> Alcotest.fail "blocklisted source not dropped"

let router_not_on_path () =
  let d, eer = rig () in
  let raw, _ = rig_packet d eer ~payload_len:0 in
  (* E (2-12) is not on the path. *)
  match Router.process_bytes (Deployment.router d G.e) ~raw ~payload_len:0 with
  | Error Router.Not_on_path -> ()
  | _ -> Alcotest.fail "off-path router processed packet"

let honest_flow_not_flagged () =
  (* An honest gateway already rate-limits its hosts, so downstream
     OFDs never flag a conforming flow. *)
  let d, eer = rig ~bw:(mbps 1.) () in
  let second_as = (List.nth eer.path 1).Path.asn in
  let transit_router = Deployment.router d second_as in
  let gw = Deployment.gateway d G.s in
  for _ = 1 to 2000 do
    Deployment.advance d 0.0005;
    match emit gw ~res_id:eer.key.res_id ~payload_len:1000 with
    | Ok raw -> ignore (Router.process_bytes transit_router ~raw ~payload_len:1000)
    | Error Gateway.Rate_exceeded -> ()
    | Error e -> Alcotest.failf "unexpected: %a" Gateway.pp_drop_reason e
  done;
  Alcotest.(check int) "honest flow not flagged" 0
    (Router.stats transit_router).suspects_flagged

let rogue_gateway_flagged_and_policed () =
  (* §4.8 / §5.1: a malicious source AS skips its monitoring duty — its
     gateway stamps packets without rate limiting (modeled by a rogue
     gateway with an enormous burst allowance). The transit AS's OFD
     flags the overusing flow probabilistically and escalates it to
     deterministic token-bucket policing, which limits it to its
     reserved bandwidth. *)
  let topo = Topology_gen.two_isd () in
  let d = Deployment.create topo in
  let db = Deployment.seg_db d in
  let up = List.hd (Segments.Db.up_segments db ~src:G.s) in
  let _ =
    Result.get_ok
      (Deployment.setup_segr d ~path:up.Segments.path ~kind:Reservation.Up
         ~max_bw:(gbps 2.) ~min_bw:(mbps 10.))
  in
  (* EER from S to its core Y1, 1 Mbps. *)
  let route = List.hd (Deployment.lookup_eer_routes d ~src:G.s ~dst:G.y1) in
  let eer, version, sigmas =
    Result.get_ok
      (Deployment.setup_eer_full d ~route ~src_host:(Ids.host 1)
         ~dst_host:(Ids.host 2) ~bw:(mbps 1.))
  in
  (* The rogue gateway: burst of 10^6 seconds ⇒ no effective limit. *)
  let rogue = Gateway.create ~burst:1e6 ~clock:(Deployment.clock d) G.s in
  (match Gateway.register rogue ~eer ~version ~sigmas with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let transit_as = (List.nth eer.path 1).Path.asn in
  let transit_router = Deployment.router d transit_as in
  let forwarded = ref 0 and policed = ref 0 in
  (* Flood ≈ 17 Mbps for 1 s through the 1 Mbps reservation. *)
  for _ = 1 to 2000 do
    Deployment.advance d 0.0005;
    match emit rogue ~res_id:eer.key.res_id ~payload_len:1000 with
    | Ok raw -> (
        match Router.process_bytes transit_router ~raw ~payload_len:1000 with
        | Ok _ -> incr forwarded
        | Error Router.Policed -> incr policed
        | Error e -> Alcotest.failf "unexpected drop: %a" Router.pp_drop_reason e)
    | Error e -> Alcotest.failf "rogue gateway dropped: %a" Gateway.pp_drop_reason e
  done;
  Alcotest.(check bool) "flow flagged as suspect" true
    ((Router.stats transit_router).suspects_flagged > 0);
  Alcotest.(check bool)
    (Printf.sprintf "excess policed (%d policed, %d forwarded)" !policed !forwarded)
    true
    (!policed > 1000);
  (* Persistent overuse is eventually confirmed and reported. *)
  Alcotest.(check bool) "overuse confirmed" true
    ((Router.stats transit_router).confirmed_overuse > 0);
  Alcotest.(check bool) "misbehavior reported to CServ" true
    (Cserv.is_denied (Deployment.cserv d transit_as) ~src:G.s)

let suite =
  [
    Alcotest.test_case "packets delivered end to end" `Quick packets_delivered_end_to_end;
    Alcotest.test_case "gateway: unknown reservation" `Quick gateway_unknown_reservation;
    Alcotest.test_case "gateway: rate limits (§4.8)" `Quick gateway_rate_limits;
    Alcotest.test_case "gateway: expired reservation" `Quick gateway_expired_reservation;
    Alcotest.test_case "router: rejects forged HVF (§5.1)" `Quick router_rejects_forged_hvf;
    Alcotest.test_case "router: rejects size lie" `Quick router_rejects_size_lie;
    Alcotest.test_case "router: rejects replay (§5.1)" `Quick router_rejects_replay;
    Alcotest.test_case "router: rejects expired and stale" `Quick router_rejects_expired_and_stale;
    Alcotest.test_case "router: blocklist" `Quick router_blocklist_blocks;
    Alcotest.test_case "router: not on path" `Quick router_not_on_path;
    Alcotest.test_case "OFD: honest flow not flagged" `Quick honest_flow_not_flagged;
    Alcotest.test_case "OFD: rogue gateway flagged and policed" `Quick rogue_gateway_flagged_and_policed;
  ]
