(** Focused unit tests for gateway and router in isolation (no
    deployment): registration validation, version pruning, timestamp
    uniqueness, SegR control-packet routing, freshness boundaries, and
    the explicit watch API. *)

open Colibri_types
open Colibri

let asn n = Ids.asn ~isd:1 ~num:n
let mbps = Bandwidth.of_mbps
let gbps = Bandwidth.of_gbps

let path2 : Path.t =
  [
    Path.hop ~asn:(asn 1) ~ingress:0 ~egress:1;
    Path.hop ~asn:(asn 2) ~ingress:1 ~egress:0;
  ]

let mk_eer ?(res_id = 1) ?(versions = []) () : Reservation.eer =
  {
    key = { src_as = asn 1; res_id };
    path = path2;
    src_host = Ids.host 1;
    dst_host = Ids.host 2;
    segr_keys = [];
    versions;
  }

let v n ?(bw = mbps 100.) exp : Reservation.version = { version = n; bw; exp_time = exp }

let sigmas2 = [ Bytes.make 16 'a'; Bytes.make 16 'b' ]

let gateway_register_validation () =
  let clock () = 0. in
  let gw = Gateway.create ~clock (asn 1) in
  (* Wrong origin AS. *)
  let foreign = { (mk_eer ()) with key = { src_as = asn 9; res_id = 1 } } in
  (match Gateway.register gw ~eer:foreign ~version:(v 1 16.) ~sigmas:sigmas2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "foreign EER registered");
  (* Wrong sigma count. *)
  (match Gateway.register gw ~eer:(mk_eer ()) ~version:(v 1 16.) ~sigmas:[ Bytes.make 16 'a' ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "short sigma list accepted");
  (* Correct registration. *)
  (match Gateway.register gw ~eer:(mk_eer ~versions:[ v 1 16. ] ()) ~version:(v 1 16.) ~sigmas:sigmas2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "registered" 1 (Gateway.reservation_count gw)

let gateway_sweep_removes_lapsed () =
  let now = ref 0. in
  let gw = Gateway.create ~clock:(fun () -> !now) (asn 1) in
  let eer = mk_eer ~versions:[ v 1 16. ] () in
  (match Gateway.register gw ~eer ~version:(v 1 16.) ~sigmas:sigmas2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  now := 20.;
  Gateway.sweep gw;
  Alcotest.(check int) "swept" 0 (Gateway.reservation_count gw)

let gateway_unique_timestamps () =
  (* Multiple sends within one clock tick must yield distinct Ts. *)
  let gw = Gateway.create ~burst:1e6 ~clock:(fun () -> 0.) (asn 1) in
  let eer = mk_eer ~versions:[ v 1 ~bw:(gbps 10.) 16. ] () in
  (match Gateway.register gw ~eer ~version:(v 1 ~bw:(gbps 10.) 16.) ~sigmas:sigmas2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let seen = Hashtbl.create 64 in
  for _ = 1 to 50 do
    match Test_dataplane.emit gw ~res_id:1 ~payload_len:0 with
    | Ok raw ->
        let ts = Timebase.Ts.to_int (Result.get_ok (Packet.of_bytes raw)).ts in
        Alcotest.(check bool) "fresh ts" false (Hashtbl.mem seen ts);
        Hashtbl.replace seen ts ()
    | Error e -> Alcotest.failf "send: %a" Gateway.pp_drop_reason e
  done

let gateway_stats_track () =
  let gw = Gateway.create ~clock:(fun () -> 0.) (asn 1) in
  let eer = mk_eer ~versions:[ v 1 16. ] () in
  ignore (Gateway.register gw ~eer ~version:(v 1 16.) ~sigmas:sigmas2);
  ignore (Gateway.send_bytes gw ~res_id:1 ~payload_len:100);
  ignore (Gateway.send_bytes gw ~res_id:77 ~payload_len:100);
  let st = Gateway.stats gw in
  Alcotest.(check int) "sent" 1 st.sent_pkts;
  Alcotest.(check int) "dropped other" 1 st.dropped_other

(* -- Router unit tests -- *)

let secret = Hvf.as_secret_of_material (Bytes.make 16 'K')

(* Validate and route a hand-built packet from its wire encoding. *)
let process r (p : Packet.t) =
  Router.process_bytes r ~raw:(Packet.to_bytes p) ~payload_len:p.payload_len

let seg_packet () : Packet.t =
  let res_info : Packet.res_info =
    { src_as = asn 1; res_id = 3; bw = mbps 100.; exp_time = 300.; version = 1 }
  in
  let hop = List.nth path2 1 in
  let token = Hvf.seg_token secret ~res_info ~hop in
  {
    kind = Packet.Seg;
    path = path2;
    res_info;
    eer_info = None;
    ts = Timebase.Ts.of_times ~exp_time:300. ~now:299.;
    hvfs = [| Bytes.make 4 'x'; token |];
    payload_len = 64;
  }

let router_routes_seg_to_cserv () =
  let now = ref 299. in
  let r = Router.create ~ofd:`None ~duplicates:`None ~secret ~clock:(fun () -> !now) (asn 2) in
  let pkt = seg_packet () in
  match process r pkt with
  | Ok Router.To_cserv -> ()
  | Ok _ -> Alcotest.fail "SegR packet not routed to CServ"
  | Error e -> Alcotest.failf "dropped: %a" Router.pp_drop_reason e

let router_seg_bad_token_dropped () =
  let r = Router.create ~ofd:`None ~duplicates:`None ~secret ~clock:(fun () -> 299.) (asn 2) in
  let pkt = seg_packet () in
  pkt.hvfs.(1) <- Bytes.make 4 'z';
  match process r pkt with
  | Error Router.Invalid_hvf -> ()
  | _ -> Alcotest.fail "bad SegR token accepted"

let eer_packet ~now : Packet.t =
  let res_info : Packet.res_info =
    { src_as = asn 1; res_id = 4; bw = mbps 100.; exp_time = now +. 16.; version = 1 }
  in
  let eer_info : Packet.eer_info = { src_host = Ids.host 1; dst_host = Ids.host 2 } in
  let hop = List.nth path2 1 in
  let sigma = Hvf.sigma_of_bytes (Hvf.hop_auth secret ~res_info ~eer_info ~hop) in
  let ts = Timebase.Ts.of_times ~exp_time:res_info.exp_time ~now in
  let hops = 2 in
  let size = Packet.header_len ~hops + 10 in
  {
    kind = Packet.Eer;
    path = path2;
    res_info;
    eer_info = Some eer_info;
    ts;
    hvfs = [| Bytes.make 4 'x'; Hvf.eer_hvf sigma ~ts ~pkt_size:size |];
    payload_len = 10;
  }

let router_delivers_at_last_hop () =
  let r = Router.create ~ofd:`None ~duplicates:`None ~secret ~clock:(fun () -> 0.) (asn 2) in
  let pkt = eer_packet ~now:0. in
  match process r pkt with
  | Ok (Router.Deliver h) -> Alcotest.(check int) "to dst host" 2 h.addr
  | Ok _ -> Alcotest.fail "expected Deliver"
  | Error e -> Alcotest.failf "dropped: %a" Router.pp_drop_reason e

let router_freshness_boundary () =
  (* Freshness window w: accepted at now = send + w - ε, rejected at
     now = send + w + ε. *)
  let w = 2.0 in
  let now = ref 0. in
  let r =
    Router.create ~freshness_window:w ~ofd:`None ~duplicates:`None ~secret
      ~clock:(fun () -> !now)
      (asn 2)
  in
  let pkt = eer_packet ~now:0. in
  now := w -. 0.01;
  (match process r pkt with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fresh packet dropped: %a" Router.pp_drop_reason e);
  now := w +. 0.01;
  match process r pkt with
  | Error Router.Stale_timestamp -> ()
  | _ -> Alcotest.fail "stale packet accepted"

let router_watch_installs_bucket () =
  let r = Router.create ~ofd:`None ~duplicates:`None ~secret ~clock:(fun () -> 0.) (asn 2) in
  Alcotest.(check int) "none watched" 0 (Router.watched_count r);
  Router.watch r ~key:{ src_as = asn 1; res_id = 4 } ~rate:(mbps 1.);
  Alcotest.(check int) "one watched" 1 (Router.watched_count r);
  (* A burst beyond the watched rate is policed. *)
  let pkt = eer_packet ~now:0. in
  let policed = ref 0 in
  (* distinct packets to bypass any dup logic (disabled anyway) *)
  for i = 1 to 600 do
    let p = { pkt with Packet.ts = Timebase.Ts.of_int (Timebase.Ts.to_int pkt.Packet.ts - i) } in
    (* recompute hvf for the new ts *)
    let hop = List.nth path2 1 in
    let sigma =
      Hvf.sigma_of_bytes
        (Hvf.hop_auth secret ~res_info:p.res_info
           ~eer_info:(Option.get p.eer_info) ~hop)
    in
    p.hvfs.(1) <- Hvf.eer_hvf sigma ~ts:p.ts ~pkt_size:(Packet.wire_size p);
    match process r p with
    | Error Router.Policed -> incr policed
    | _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "policed %d" !policed) true (!policed > 300)

(* -- Parallel router -- *)

let parallel_router_short_packet_is_parse_error () =
  (* Regression: the dispatcher read the dispatch byte with an
     unchecked [Bytes.get raw 8], so any frame under 9 bytes raised
     [Invalid_argument] instead of producing the parser's verdict. *)
  let pr =
    Dataplane_shard.Parallel_router.create ~secret ~clock:(fun () -> 0.) ~workers:2
      (asn 2)
  in
  let lens = [ 0; 1; 8 ] in
  List.iter
    (fun len ->
      Alcotest.(check bool)
        (Printf.sprintf "%d-byte frame accepted by submit" len)
        true
        (Dataplane_shard.Parallel_router.submit pr ~raw:(Bytes.make len '\000')
           ~payload_len:0))
    lens;
  Dataplane_shard.Parallel_router.shutdown pr;
  let m = Dataplane_shard.Parallel_router.metrics pr in
  let counter name =
    match List.assoc_opt name m with Some (Obs.Counter n) -> n | _ -> 0
  in
  Alcotest.(check int) "every short frame is a parse error" (List.length lens)
    (counter (Obs.labeled "router_dropped_total" [ ("reason", "parse_error") ]));
  Alcotest.(check int) "nothing forwarded" 0 (counter "router_forwarded_total")

let suite =
  [
    Alcotest.test_case "gateway: register validation" `Quick gateway_register_validation;
    Alcotest.test_case "gateway: sweep removes lapsed" `Quick gateway_sweep_removes_lapsed;
    Alcotest.test_case "gateway: unique timestamps" `Quick gateway_unique_timestamps;
    Alcotest.test_case "gateway: stats" `Quick gateway_stats_track;
    Alcotest.test_case "router: SegR packet to CServ" `Quick router_routes_seg_to_cserv;
    Alcotest.test_case "router: bad SegR token dropped" `Quick router_seg_bad_token_dropped;
    Alcotest.test_case "router: delivers at last hop" `Quick router_delivers_at_last_hop;
    Alcotest.test_case "router: freshness boundary" `Quick router_freshness_boundary;
    Alcotest.test_case "router: watch installs bucket" `Quick router_watch_installs_bucket;
    Alcotest.test_case "parallel router: short packet is parse error" `Quick
      parallel_router_short_packet_is_parse_error;
  ]
