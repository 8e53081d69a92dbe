(** Tests for the colibri-metrics layer: counter/gauge/histogram
    semantics, registry create-or-get, labeled families, merge, JSON
    export — and the end-to-end acceptance check that a mixed
    admit/drop workload through a gateway and a border router leaves
    per-reason drop counters and monitor occupancy gauges populated. *)

open Colibri_types
open Colibri

(* ---------- Snapshot helpers ---------- *)

let counter_of snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Counter n) -> n
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> Alcotest.failf "missing counter %s" name

let gauge_of snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Gauge g) -> g
  | Some _ -> Alcotest.failf "%s is not a gauge" name
  | None -> Alcotest.failf "missing gauge %s" name

let histogram_of snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Histogram { count; sum; buckets }) -> (count, sum, buckets)
  | Some _ -> Alcotest.failf "%s is not a histogram" name
  | None -> Alcotest.failf "missing histogram %s" name

(* ---------- Primitives ---------- *)

let counter_basics () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "c_total" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Counter.value c);
  Obs.Counter.add c (-7);
  Alcotest.(check int) "negative add ignored (monotonic)" 42 (Obs.Counter.value c)

let gauge_basics () =
  let r = Obs.Registry.create () in
  let g = Obs.Registry.gauge r "g" in
  Obs.Gauge.set g 3.5;
  Obs.Gauge.add g (-1.5);
  Alcotest.(check (float 1e-9)) "set + add" 2. (Obs.Gauge.value g)

let histogram_basics () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r "h" in
  List.iter (Obs.Histogram.observe h) [ 1.; 3.; 100.; 100000. ];
  Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum" 100104. (Obs.Histogram.sum h);
  let count, sum, buckets = histogram_of (Obs.Registry.snapshot r) "h" in
  Alcotest.(check int) "snapshot count" 4 count;
  Alcotest.(check (float 1e-6)) "snapshot sum" 100104. sum;
  (* Buckets are cumulative, increasing bounds, last bound infinite. *)
  let last_bound, last_n = buckets.(Array.length buckets - 1) in
  Alcotest.(check bool) "last bound infinite" true (last_bound = infinity);
  Alcotest.(check int) "last bucket holds all" 4 last_n;
  Array.iteri
    (fun i (b, n) ->
      if i > 0 then begin
        let b', n' = buckets.(i - 1) in
        Alcotest.(check bool) "bounds increase" true (b > b');
        Alcotest.(check bool) "counts cumulative" true (n >= n')
      end)
    buckets

let registry_create_or_get () =
  let r = Obs.Registry.create () in
  let a = Obs.Registry.counter r "same" in
  let b = Obs.Registry.counter r "same" in
  Obs.Counter.incr a;
  Obs.Counter.incr b;
  Alcotest.(check int) "one counter behind one name" 2 (Obs.Counter.value a);
  Alcotest.(check bool) "kind mismatch rejected" true
    (try
       ignore (Obs.Registry.gauge r "same");
       false
     with Invalid_argument _ -> true)

let gauge_fn_sampled_at_snapshot () =
  let r = Obs.Registry.create () in
  let live = ref 0 in
  Obs.Registry.gauge_fn r "live" (fun () -> float_of_int !live);
  live := 7;
  Alcotest.(check (float 0.)) "sampled late" 7.
    (gauge_of (Obs.Registry.snapshot r) "live");
  live := 9;
  Alcotest.(check (float 0.)) "sampled again" 9.
    (gauge_of (Obs.Registry.snapshot r) "live")

let labeled_naming () =
  Alcotest.(check string) "one label" "x_total{reason=\"expired\"}"
    (Obs.labeled "x_total" [ ("reason", "expired") ]);
  Alcotest.(check string) "no label" "x_total" (Obs.labeled "x_total" [])

let snapshot_sorted () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter r "zz");
  ignore (Obs.Registry.counter r "aa");
  ignore (Obs.Registry.gauge r "mm");
  let names = List.map fst (Obs.Registry.snapshot r) in
  Alcotest.(check (list string)) "sorted by name" [ "aa"; "mm"; "zz" ] names

let merge_sums () =
  let mk sent occupancy size =
    let r = Obs.Registry.create () in
    Obs.Counter.add (Obs.Registry.counter r "sent_total") sent;
    Obs.Gauge.set (Obs.Registry.gauge r "occupancy") occupancy;
    Obs.Histogram.observe (Obs.Registry.histogram r "size") size;
    Obs.Registry.snapshot r
  in
  let m = Obs.merge [ mk 3 0.5 10.; mk 4 0.25 1000. ] in
  Alcotest.(check int) "counters sum" 7 (counter_of m "sent_total");
  Alcotest.(check (float 1e-9)) "gauges sum" 0.75 (gauge_of m "occupancy");
  let count, sum, _ = histogram_of m "size" in
  Alcotest.(check int) "histogram counts sum" 2 count;
  Alcotest.(check (float 1e-6)) "histogram sums sum" 1010. sum

let json_export () =
  let r = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter r "c_total") 5;
  Obs.Gauge.set (Obs.Registry.gauge r "g") 1.5;
  Obs.Histogram.observe (Obs.Registry.histogram r "h") 3.;
  ignore
    (Obs.Registry.counter r (Obs.labeled "d_total" [ ("reason", "expired") ]));
  let json = Obs.to_json (Obs.Registry.snapshot r) in
  let contains sub = Astring.String.is_infix ~affix:sub json in
  Alcotest.(check bool) "object" true
    (String.length json > 1 && json.[0] = '{' && json.[String.length json - 1] = '}');
  Alcotest.(check bool) "counter" true (contains "\"c_total\":5");
  Alcotest.(check bool) "gauge" true (contains "\"g\":1.5");
  Alcotest.(check bool) "histogram fields" true
    (contains "\"count\":1" && contains "\"buckets\":");
  (* The {reason="…"} suffix must be escaped to stay a legal JSON key. *)
  Alcotest.(check bool) "labeled name escaped" true
    (contains "d_total{reason=\\\"expired\\\"}")

let asn_family_memoized () =
  let r = Obs.Registry.create () in
  let fam = Obs.Asn_counters.create r ~name:"denied_total" ~label:"src_as" in
  let a = Ids.asn ~isd:1 ~num:5 in
  Obs.Counter.incr (Obs.Asn_counters.get fam a);
  Obs.Counter.incr (Obs.Asn_counters.get fam a);
  Obs.Counter.incr (Obs.Asn_counters.get fam (Ids.asn ~isd:1 ~num:6));
  Alcotest.(check int) "same AS, same counter" 2
    (Obs.Counter.value (Obs.Asn_counters.get fam a));
  let members =
    List.filter
      (fun (n, _) -> String.starts_with ~prefix:"denied_total{src_as=" n)
      (Obs.Registry.snapshot r)
  in
  Alcotest.(check int) "two family members registered" 2 (List.length members)

let res_key_family_memoized () =
  let r = Obs.Registry.create () in
  let fam = Obs.Res_key_counters.create r ~name:"flow_total" ~label:"flow" in
  let k : Ids.res_key = { src_as = Ids.asn ~isd:1 ~num:2; res_id = 9 } in
  Obs.Counter.incr (Obs.Res_key_counters.get fam k);
  Obs.Counter.incr (Obs.Res_key_counters.get fam k);
  Alcotest.(check int) "same key, same counter" 2
    (Obs.Counter.value (Obs.Res_key_counters.get fam k))

(* ---------- Acceptance: mixed workload through gateway + router ----- *)

let asn n = Ids.asn ~isd:1 ~num:n
let mbps = Bandwidth.of_mbps

let path2 : Path.t =
  [
    Path.hop ~asn:(asn 1) ~ingress:0 ~egress:1;
    Path.hop ~asn:(asn 2) ~ingress:1 ~egress:0;
  ]

let mk_eer ?(res_id = 1) ~versions () : Reservation.eer =
  {
    key = { src_as = asn 1; res_id };
    path = path2;
    src_host = Ids.host 1;
    dst_host = Ids.host 2;
    segr_keys = [];
    versions;
  }

let secret = Hvf.as_secret_of_material (Bytes.make 16 'K')

let eer_packet ~now ~payload_len : Packet.t =
  let res_info : Packet.res_info =
    { src_as = asn 1; res_id = 4; bw = mbps 100.; exp_time = now +. 16.; version = 1 }
  in
  let eer_info : Packet.eer_info = { src_host = Ids.host 1; dst_host = Ids.host 2 } in
  let hop = List.nth path2 1 in
  let sigma = Hvf.sigma_of_bytes (Hvf.hop_auth secret ~res_info ~eer_info ~hop) in
  let ts = Timebase.Ts.of_times ~exp_time:res_info.exp_time ~now in
  let size = Packet.header_len ~hops:2 + payload_len in
  {
    kind = Packet.Eer;
    path = path2;
    res_info;
    eer_info = Some eer_info;
    ts;
    hvfs = [| Bytes.make 4 'x'; Hvf.eer_hvf sigma ~ts ~pkt_size:size |];
    payload_len;
  }

let mixed_workload_populates_metrics () =
  (* Gateway side: one live 1 Mbps reservation (burst 0.1 s → 12.5 kB),
     a mix of clean sends, an unknown ResId, and a rate-bust. *)
  let version : Reservation.version =
    { version = 1; bw = mbps 1.; exp_time = 16. }
  in
  let gw = Gateway.create ~clock:(fun () -> 0.) (asn 1) in
  (match
     Gateway.register gw
       ~eer:(mk_eer ~versions:[ version ] ())
       ~version
       ~sigmas:[ Bytes.make 16 'a'; Bytes.make 16 'b' ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Gateway.send_bytes gw ~res_id:1 ~payload_len:100 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean send dropped: %a" Gateway.pp_drop_reason e);
  (match Gateway.send_bytes gw ~res_id:777 ~payload_len:100 with
  | Error Gateway.Unknown_reservation -> ()
  | _ -> Alcotest.fail "unknown ResId not dropped");
  (match Gateway.send_bytes gw ~res_id:1 ~payload_len:20_000 with
  | Error Gateway.Rate_exceeded -> ()
  | _ -> Alcotest.fail "rate bust not dropped");
  let gs = Obs.Registry.snapshot (Gateway.metrics gw) in
  Alcotest.(check int) "gateway sent" 1 (counter_of gs "gateway_sent_packets_total");
  Alcotest.(check int) "gateway drop: unknown" 1
    (counter_of gs (Obs.labeled "gateway_dropped_total" [ ("reason", "unknown_reservation") ]));
  Alcotest.(check int) "gateway drop: rate" 1
    (counter_of gs (Obs.labeled "gateway_dropped_total" [ ("reason", "rate_exceeded") ]));
  Alcotest.(check (float 0.)) "gateway reservations gauge" 1.
    (gauge_of gs "gateway_reservations");
  (let count, _, _ = histogram_of gs "gateway_packet_bytes" in
   Alcotest.(check int) "packet-size histogram populated" 1 count);

  (* Router side (monitors at defaults): a forwarded packet, its
     replay, a corrupted HVF, and a truncated frame. *)
  let r = Router.create ~secret ~clock:(fun () -> 0.) (asn 2) in
  let pkt = eer_packet ~now:0. ~payload_len:10 in
  (match Test_dataplane_unit.process r pkt with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid packet dropped: %a" Router.pp_drop_reason e);
  (match Test_dataplane_unit.process r pkt with
  | Error Router.Duplicate -> ()
  | _ -> Alcotest.fail "replay not dropped");
  let bad = eer_packet ~now:0. ~payload_len:20 in
  bad.hvfs.(1) <- Bytes.make 4 'z';
  (match Test_dataplane_unit.process r bad with
  | Error Router.Invalid_hvf -> ()
  | _ -> Alcotest.fail "bad HVF not dropped");
  (match Router.process_bytes r ~raw:(Bytes.make 3 '\000') ~payload_len:0 with
  | Error (Router.Parse_error _) -> ()
  | _ -> Alcotest.fail "truncated frame not a parse error");
  let rs = Obs.Registry.snapshot (Router.metrics r) in
  let dropped reason =
    counter_of rs (Obs.labeled "router_dropped_total" [ ("reason", reason) ])
  in
  Alcotest.(check int) "router forwarded" 1 (counter_of rs "router_forwarded_total");
  Alcotest.(check int) "router drop: duplicate" 1 (dropped "duplicate");
  Alcotest.(check int) "router drop: invalid_hvf" 1 (dropped "invalid_hvf");
  Alcotest.(check int) "router drop: parse_error" 1 (dropped "parse_error");
  Alcotest.(check int) "router drop: policed untouched" 0 (dropped "policed");
  (* Monitor occupancy gauges: the forwarded packet inserted into the
     duplicate filter and was observed by the OFD sketch. *)
  Alcotest.(check bool) "dup filter bits set" true
    (gauge_of rs "router_dup_filter_bits_set" > 0.);
  let fill = gauge_of rs "router_dup_filter_fill_ratio" in
  Alcotest.(check bool) "dup fill ratio in (0,1)" true (fill > 0. && fill < 1.);
  Alcotest.(check bool) "ofd observed packets" true
    (gauge_of rs "router_ofd_observed_packets" > 0.);
  (* Sampling is observation-only: a second snapshot reads the same. *)
  Alcotest.(check (float 0.)) "snapshot is pure"
    (gauge_of rs "router_dup_filter_bits_set")
    (gauge_of (Obs.Registry.snapshot (Router.metrics r)) "router_dup_filter_bits_set")

let parallel_router_metrics_aggregate () =
  (* Each worker domain owns a router with its own registry;
     [Parallel_router.metrics] must read like one big router: every
     router counter is the sum of the per-worker counters. *)
  let pr =
    Dataplane_shard.Parallel_router.create ~secret ~clock:(fun () -> 0.) ~workers:2
      (asn 2)
  in
  let submit raw payload_len =
    while not (Dataplane_shard.Parallel_router.submit pr ~raw ~payload_len) do
      Domain.cpu_relax ()
    done
  in
  let good = Packet.to_bytes (eer_packet ~now:0. ~payload_len:10) in
  let bad = eer_packet ~now:0. ~payload_len:10 in
  bad.hvfs.(1) <- Bytes.make 4 'z';
  let bad = Packet.to_bytes bad in
  for _ = 1 to 5 do submit good 10 done;
  for _ = 1 to 3 do submit bad 10 done;
  for len = 0 to 31 do submit (Bytes.make len '\001') 0 done;
  Dataplane_shard.Parallel_router.shutdown pr;
  let m = Dataplane_shard.Parallel_router.metrics pr in
  let per_worker name =
    List.init (Dataplane_shard.Parallel_router.worker_count pr) (fun i ->
        counter_of (Dataplane_shard.Parallel_router.worker_metrics pr i) name)
  in
  List.iter
    (fun (name, want) ->
      Alcotest.(check int) (name ^ " merged") want (counter_of m name);
      Alcotest.(check int) (name ^ " = sum over workers") want
        (List.fold_left ( + ) 0 (per_worker name)))
    [
      ("router_forwarded_total", 5);
      (Obs.labeled "router_dropped_total" [ ("reason", "invalid_hvf") ], 3);
      (Obs.labeled "router_dropped_total" [ ("reason", "parse_error") ], 32);
    ];
  Alcotest.(check bool) "both workers saw traffic" true
    (List.for_all (fun n -> n > 0)
       (per_worker (Obs.labeled "router_dropped_total" [ ("reason", "parse_error") ])))

let suite =
  [
    Alcotest.test_case "counter basics" `Quick counter_basics;
    Alcotest.test_case "gauge basics" `Quick gauge_basics;
    Alcotest.test_case "histogram basics" `Quick histogram_basics;
    Alcotest.test_case "registry create-or-get" `Quick registry_create_or_get;
    Alcotest.test_case "gauge_fn sampled at snapshot" `Quick gauge_fn_sampled_at_snapshot;
    Alcotest.test_case "labeled naming" `Quick labeled_naming;
    Alcotest.test_case "snapshot sorted" `Quick snapshot_sorted;
    Alcotest.test_case "merge sums" `Quick merge_sums;
    Alcotest.test_case "JSON export" `Quick json_export;
    Alcotest.test_case "per-AS counter family" `Quick asn_family_memoized;
    Alcotest.test_case "per-reservation counter family" `Quick res_key_family_memoized;
    Alcotest.test_case "mixed workload populates metrics" `Quick
      mixed_workload_populates_metrics;
    Alcotest.test_case "parallel router metrics aggregate" `Quick
      parallel_router_metrics_aggregate;
  ]
