(** Differential tests for the zero-copy wire path (DESIGN.md §8).

    [Packet.View] re-implements the header decoder as validated cursor
    accessors over the raw buffer; these properties pin it to the
    reference [Packet.of_bytes] record decoder — same accept/reject
    verdict on arbitrary (also corrupted) buffers, identical field
    values on accept. The gateway's [send_bytes] output is checked
    against that decoder and the allocating [Hvf] MACs. GC regression
    tests assert that the warmed router fast path allocates nothing,
    the monitored one nothing beyond its verdict, and the gateway no
    more than its pinned ceiling. *)

open Colibri_types
open Colibri

(* Shared view: [parse] fully re-initializes it, exactly as a router
   reuses one view across packets. *)
let view = Packet.View.create ()

(* Field-by-field agreement of a successfully parsed view with the
   record [of_bytes] produced for the same buffer. *)
let check_view_matches_record (q : Packet.t) : bool =
  let v = view in
  let hops = List.length q.path in
  let prim_ok =
    Packet.View.kind v = q.kind
    && Packet.View.hops v = hops
    && Packet.View.payload_len v = q.payload_len
    && Timebase.Ts.to_int (Packet.View.ts v) = Timebase.Ts.to_int q.ts
    && Packet.View.src_isd v = q.res_info.src_as.isd
    && Packet.View.src_num v = q.res_info.src_as.num
    && Packet.View.res_id v = q.res_info.res_id
    && Packet.View.version v = q.res_info.version
    && Packet.View.header_length v = Packet.header_len ~hops
    && Packet.View.wire_size v = Packet.header_len ~hops + q.payload_len
  in
  let exact_ok =
    (* Allocating conveniences must reproduce the record decoder bit
       for bit (they share the underlying field codecs). *)
    Bandwidth.to_bps (Packet.View.bw v) = Bandwidth.to_bps q.res_info.bw
    && Packet.View.exp_time v = q.res_info.exp_time
    && Packet.View.res_info v = q.res_info
    && Packet.View.eer_info v = q.eer_info
  in
  let unboxed_ok =
    (* The unrolled [Wire.get64] reads must agree with the stdlib
       big-endian decoder on the same raw field bytes (the float
       accessors above already pin the semantic values; on corrupted
       buffers the i64 can exceed the exact-float range, so the
       comparison is against the integer decode, not the float). *)
    let buf = Packet.View.buffer v and ro = Packet.View.res_off v in
    Packet.View.bw_bps_int v = Int64.to_int (Bytes.get_int64_be buf (ro + 12))
    && Packet.View.exp_time_us v = Int64.to_int (Bytes.get_int64_be buf (ro + 20))
    &&
    match q.eer_info with
    | None -> true
    | Some e ->
        Packet.View.eer_src_addr v = e.src_host.addr
        && Packet.View.eer_dst_addr v = e.dst_host.addr
  in
  let hops_ok =
    List.for_all2
      (fun i (h : Path.hop) ->
        Packet.View.hop v i = h
        && Packet.View.hop_isd v i = h.asn.isd
        && Packet.View.hop_num v i = h.asn.num
        && Packet.View.hop_ingress v i = h.ingress
        && Packet.View.hop_egress v i = h.egress)
      (List.init hops Fun.id) q.path
  in
  let hvfs_ok =
    Array.for_all Fun.id
      (Array.mapi (fun i hv -> Bytes.equal (Packet.View.hvf v i) hv) q.hvfs)
  in
  prim_ok && exact_ok && unboxed_ok && hops_ok && hvfs_ok

let prop_view_roundtrip =
  QCheck2.Test.make ~name:"view: agrees with of_bytes on round-tripped packets"
    ~count:1000 Test_packet.packet_gen (fun p ->
      let raw = Packet.to_bytes p in
      match (Packet.of_bytes raw, Packet.View.parse view raw) with
      | Ok q, Ok () -> check_view_matches_record q
      | _ -> false)

(* A packet plus a corruption: either truncate to a random prefix or
   flip one random bit. Exercises every verdict branch of the parser
   (Truncated, Bad_magic, Bad_kind, Bad_hop_count, Bad_payload_len,
   Bad_path) as well as accepted-but-altered fields. *)
let corrupted_gen =
  QCheck2.Gen.(
    let* p = Test_packet.packet_gen in
    let raw = Packet.to_bytes p in
    let n = Bytes.length raw in
    let* choice = 0 -- 2 in
    match choice with
    | 0 ->
        let* keep = 0 -- n in
        return (Bytes.sub raw 0 keep)
    | 1 ->
        let* pos = 0 -- (n - 1) in
        let* bit = 0 -- 7 in
        let b = Bytes.copy raw in
        Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl bit));
        return b
    | _ ->
        (* both: truncate then flip, if anything is left *)
        let* keep = 1 -- n in
        let b = Bytes.sub raw 0 keep in
        let* pos = 0 -- (keep - 1) in
        let* bit = 0 -- 7 in
        Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl bit));
        return b)

let prop_view_differential =
  QCheck2.Test.make ~name:"view: same verdict as of_bytes on corrupted buffers"
    ~count:1000 corrupted_gen (fun raw ->
      match (Packet.of_bytes raw, Packet.View.parse view raw) with
      | Ok q, Ok () -> check_view_matches_record q
      | Error e1, Error e2 -> e1 = e2
      | Ok _, Error _ | Error _, Ok () -> false)

(* ---------- GC regression: the warmed fast path must not allocate ---- *)

(* The probe topology: a 3-hop path through AS (1,2), whose router
   holds [probe_secret]. *)
let probe_path =
  [
    Path.hop ~asn:(Ids.asn ~isd:1 ~num:1) ~ingress:0 ~egress:2;
    Path.hop ~asn:(Ids.asn ~isd:1 ~num:2) ~ingress:1 ~egress:2;
    Path.hop ~asn:(Ids.asn ~isd:1 ~num:3) ~ingress:1 ~egress:0;
  ]

let probe_res_info : Packet.res_info =
  {
    src_as = Ids.asn ~isd:1 ~num:1;
    res_id = 7;
    bw = Bandwidth.of_gbps 100.;
    exp_time = 1e9;
    version = 1;
  }

let probe_secret = Hvf.as_secret_of_material (Bytes.make 16 'R')

(* A valid SegR packet on the probe path; the bare router (no OFD, no
   duplicate filter) must validate and route it without touching the
   minor heap. *)
let seg_packet_and_router () =
  let path = probe_path and res_info = probe_res_info and secret = probe_secret in
  let hop = List.nth path 1 in
  let hvfs =
    Array.init 3 (fun j ->
        if j = 1 then Hvf.seg_token secret ~res_info ~hop
        else Bytes.make Packet.hvf_len 'x')
  in
  let raw =
    Packet.to_bytes
      {
        Packet.kind = Packet.Seg;
        path;
        res_info;
        eer_info = None;
        ts = Timebase.Ts.of_int 1_000_000;
        hvfs;
        payload_len = 0;
      }
  in
  let router =
    Router.create ~freshness_window:1e12 ~ofd:`None ~duplicates:`None ~secret
      ~clock:(fun () -> 0.)
      (Ids.asn ~isd:1 ~num:2)
  in
  (raw, router)

let router_fast_path_zero_alloc () =
  let raw, router = seg_packet_and_router () in
  let run () =
    match Router.process_bytes router ~raw ~payload_len:0 with
    | Ok Router.To_cserv -> ()
    | _ -> Alcotest.fail "SegR packet not accepted"
  in
  (* Warm up: lazy one-time work (first parse, table internals). *)
  for _ = 1 to 1_000 do
    run ()
  done;
  let before = Gc.minor_words () in
  let n = 10_000 in
  for _ = 1 to n do
    run ()
  done;
  let delta = Gc.minor_words () -. before in
  (* Slack covers only the boxed floats of the two [Gc.minor_words]
     reads; 10k packets at even 1 word each would blow far past it. *)
  if delta > 64. then
    Alcotest.failf "router fast path allocated %.0f minor words over %d packets"
      delta n

(* The monitored router (OFD and duplicate filter on, their defaults)
   on transit EER traffic: a distinct timestamp per packet keeps every
   one fresh for the duplicate filter, and a 100 Gbps reservation
   keeps the flow far below the OFD threshold. What may be allocated
   is the verdict alone, [Ok (Forward egress)]: 4 words per packet. *)
let monitored_router_alloc () =
  let path = probe_path and res_info = probe_res_info and secret = probe_secret in
  let eer_info : Packet.eer_info = { src_host = Ids.host 1; dst_host = Ids.host 2 } in
  let sigma =
    Hvf.sigma_of_bytes (Hvf.hop_auth secret ~res_info ~eer_info ~hop:(List.nth path 1))
  in
  let pkt_size = Packet.header_len ~hops:3 in
  let warm = 1_000 and n = 10_000 in
  let batch =
    Array.init (warm + n) (fun i ->
        let ts = Timebase.Ts.of_int (1_000_000_000 - i) in
        Packet.to_bytes
          {
            Packet.kind = Packet.Eer;
            path;
            res_info;
            eer_info = Some eer_info;
            ts;
            hvfs =
              Array.init 3 (fun j ->
                  if j = 1 then Hvf.eer_hvf sigma ~ts ~pkt_size
                  else Bytes.make Packet.hvf_len 'x');
            payload_len = 0;
          })
  in
  let router =
    Router.create ~freshness_window:1e12 ~secret ~clock:(fun () -> 0.)
      (Ids.asn ~isd:1 ~num:2)
  in
  let run i =
    match Router.process_bytes router ~raw:batch.(i) ~payload_len:0 with
    | Ok (Router.Forward 2) -> ()
    | _ -> Alcotest.fail "transit EER packet not forwarded"
  in
  for i = 0 to warm - 1 do
    run i
  done;
  let before = Gc.minor_words () in
  for i = warm to warm + n - 1 do
    run i
  done;
  let delta = Gc.minor_words () -. before in
  (* Same slack as above, over the 4-word verdict. *)
  if delta > float_of_int (4 * n) +. 64. then
    Alcotest.failf "monitored router allocated %.0f minor words over %d packets"
      delta n

(* ---------- Gateway wire path against the reference decoder -------- *)

(* A gateway at the probe path's source holding one reservation whose
   three σ's are distinct, so a σ written at the wrong hop shows. *)
let probe_sigmas = List.init 3 (fun i -> Bytes.make 16 (Char.chr (65 + i)))

let probe_version : Reservation.version =
  { version = 3; bw = Bandwidth.of_gbps 100.; exp_time = 1e9 }

let probe_eer : Reservation.eer =
  {
    key = { src_as = Ids.asn ~isd:1 ~num:1; res_id = 5 };
    path = probe_path;
    src_host = Ids.host 1;
    dst_host = Ids.host 2;
    segr_keys = [];
    versions = [ probe_version ];
  }

let probe_gateway () =
  let gw = Gateway.create ~burst:1e12 ~clock:(fun () -> 0.) (Ids.asn ~isd:1 ~num:1) in
  (match
     Gateway.register gw ~eer:probe_eer ~version:probe_version ~sigmas:probe_sigmas
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  gw

(* [send_bytes]' output, decoded by [Packet.of_bytes], carries every
   field of the registered reservation, a strictly decreasing Ts, and
   at each hop i the HVF that the allocating reference MAC computes
   from σ_i over that Ts and the full packet size (Eq. (6)). *)
let gateway_send_bytes_reference () =
  let gw = probe_gateway () in
  let hops = List.length probe_path in
  let last_ts = ref max_int in
  List.iteri
    (fun n payload_len ->
      let what field = Printf.sprintf "packet %d: %s" n field in
      match Gateway.send_bytes gw ~res_id:5 ~payload_len with
      | Error e -> Alcotest.failf "%s" (what (Fmt.str "%a" Gateway.pp_drop_reason e))
      | Ok egress -> (
          Alcotest.(check int) (what "egress") 2 egress;
          let raw = Bytes.sub (Gateway.out gw) 0 (Gateway.out_len gw) in
          Alcotest.(check int) (what "header length") (Packet.header_len ~hops)
            (Bytes.length raw);
          match Packet.of_bytes raw with
          | Error e -> Alcotest.failf "%s" (what (Fmt.str "%a" Packet.pp_parse_error e))
          | Ok q ->
              Alcotest.(check bool) (what "kind") true (q.kind = Packet.Eer);
              Alcotest.(check bool) (what "path") true (q.path = probe_path);
              Alcotest.(check bool) (what "res_info") true
                (q.res_info
                = {
                    src_as = probe_eer.key.src_as;
                    res_id = probe_eer.key.res_id;
                    bw = probe_version.bw;
                    exp_time = probe_version.exp_time;
                    version = probe_version.version;
                  });
              Alcotest.(check bool) (what "eer_info") true
                (q.eer_info
                = Some { src_host = probe_eer.src_host; dst_host = probe_eer.dst_host });
              Alcotest.(check int) (what "payload_len") payload_len q.payload_len;
              let ts = Timebase.Ts.to_int q.ts in
              Alcotest.(check bool) (what "Ts strictly decreasing") true (ts < !last_ts);
              last_ts := ts;
              let pkt_size = Packet.header_len ~hops + payload_len in
              List.iteri
                (fun i material ->
                  Alcotest.(check string)
                    (what (Printf.sprintf "HVF %d" i))
                    (Bytes.to_string
                       (Hvf.eer_hvf (Hvf.sigma_of_bytes material) ~ts:q.ts ~pkt_size))
                    (Bytes.to_string q.hvfs.(i)))
                probe_sigmas))
    [ 0; 1500; 0; 9000; 64 ]

let gateway_send_bytes_drops () =
  let gw = probe_gateway () in
  match Gateway.send_bytes gw ~res_id:999 ~payload_len:0 with
  | Error Gateway.Unknown_reservation -> ()
  | _ -> Alcotest.fail "expected Unknown_reservation"

(* The warmed gateway on the probe reservation (3 hops, empty payload)
   allocates 37 minor words per packet: the ceiling, which may only
   fall. The slack is the one of the router pins above. *)
let gateway_words = 37

let gateway_alloc () =
  let gw = probe_gateway () in
  let run () =
    match Gateway.send_bytes gw ~res_id:5 ~payload_len:0 with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "probe packet dropped"
  in
  for _ = 1 to 1_000 do
    run ()
  done;
  let before = Gc.minor_words () in
  let n = 10_000 in
  for _ = 1 to n do
    run ()
  done;
  let delta = Gc.minor_words () -. before in
  if delta > float_of_int (gateway_words * n) +. 64. then
    Alcotest.failf "gateway allocated %.0f minor words over %d packets" delta n

let suite =
  [
    QCheck_alcotest.to_alcotest prop_view_roundtrip;
    QCheck_alcotest.to_alcotest prop_view_differential;
    Alcotest.test_case "router fast path: 0 minor words/packet" `Quick
      router_fast_path_zero_alloc;
    Alcotest.test_case "monitored router: 4 minor words/packet (the verdict)" `Quick
      monitored_router_alloc;
    Alcotest.test_case "gateway send_bytes ≡ reference decoder and MAC" `Quick
      gateway_send_bytes_reference;
    Alcotest.test_case "gateway send_bytes drop verdicts" `Quick
      gateway_send_bytes_drops;
    Alcotest.test_case "gateway: minor words/packet at most today's" `Quick
      gateway_alloc;
  ]
