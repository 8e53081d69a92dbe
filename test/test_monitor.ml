(** Tests for monitoring and policing: token bucket, duplicate filter,
    overuse-flow detector, blocklist. *)

open Colibri_types

(* ---------- Token bucket ---------- *)

let tb_conforming_flow_passes () =
  (* 1 Mbps flow sending 1 Mbps of 1250-byte packets: all admitted. *)
  let rate = Bandwidth.of_mbps 1. in
  let tb = Monitor.Token_bucket.create ~rate ~burst:0.1 ~now:0. in
  let bytes = 1250 in
  let interval = 8. *. float_of_int bytes /. Bandwidth.to_bps rate in
  let ok = ref true in
  for i = 1 to 1000 do
    let now = float_of_int i *. interval in
    if not (Monitor.Token_bucket.admit tb ~now ~bytes) then ok := false
  done;
  Alcotest.(check bool) "all admitted" true !ok

let tb_overuse_dropped () =
  (* Sending at 2× the rate: about half the volume must be dropped. *)
  let rate = Bandwidth.of_mbps 1. in
  let tb = Monitor.Token_bucket.create ~rate ~burst:0.05 ~now:0. in
  let bytes = 1250 in
  let interval = 8. *. float_of_int bytes /. (2. *. Bandwidth.to_bps rate) in
  let admitted = ref 0 and total = 2000 in
  for i = 1 to total do
    let now = float_of_int i *. interval in
    if Monitor.Token_bucket.admit tb ~now ~bytes then incr admitted
  done;
  let ratio = float_of_int !admitted /. float_of_int total in
  Alcotest.(check bool) (Printf.sprintf "about half admitted (%.2f)" ratio) true
    (ratio > 0.45 && ratio < 0.60)

let tb_burst_allowance () =
  (* A fresh bucket allows a burst of rate×burst bits at once. *)
  let rate = Bandwidth.of_mbps 8. in
  (* burst 0.1 s → 800 kbit = 100 kB *)
  let tb = Monitor.Token_bucket.create ~rate ~burst:0.1 ~now:0. in
  Alcotest.(check bool) "100 kB burst fits" true
    (Monitor.Token_bucket.admit tb ~now:0. ~bytes:100_000);
  Alcotest.(check bool) "next packet rejected" false
    (Monitor.Token_bucket.admit tb ~now:0. ~bytes:1000);
  (* After 10 ms, 8 Mbps × 10 ms = 10 kB refilled. *)
  Alcotest.(check bool) "refill after 10ms" true
    (Monitor.Token_bucket.admit tb ~now:0.01 ~bytes:9_000)

let tb_set_rate () =
  let tb = Monitor.Token_bucket.create ~rate:(Bandwidth.of_mbps 1.) ~burst:0.1 ~now:0. in
  ignore (Monitor.Token_bucket.admit tb ~now:0. ~bytes:12_500);
  Monitor.Token_bucket.set_rate tb ~rate:(Bandwidth.of_mbps 10.) ~now:0.;
  Alcotest.(check (float 1e-6)) "rate updated" 10e6
    (Bandwidth.to_bps (Monitor.Token_bucket.rate tb));
  (* Burst duration preserved: capacity is now 10 Mbps × 0.1 s. *)
  Alcotest.(check bool) "larger burst after 1s" true
    (Monitor.Token_bucket.admit tb ~now:1. ~bytes:125_000)

let tb_peek_is_observation_only () =
  (* Regression: [available_bits] used to commit a refill, so sampling
     with a skewed (future) clock let a later admit at an earlier time
     see tokens it had not earned. *)
  let rate = Bandwidth.of_mbps 8. in
  let tb = Monitor.Token_bucket.create ~rate ~burst:0.1 ~now:0. in
  (* Drain the bucket completely at t = 0. *)
  Alcotest.(check bool) "drain" true (Monitor.Token_bucket.admit tb ~now:0. ~bytes:100_000);
  (* A monitor samples with a clock 100 s in the future: it sees the
     would-be fill… *)
  Alcotest.(check (float 1e-6)) "peek sees future fill"
    (Monitor.Token_bucket.capacity_bits tb)
    (Monitor.Token_bucket.available_bits tb ~now:100.);
  (* …but the bucket itself is unchanged: an admit right after the
     drain still fails. *)
  Alcotest.(check bool) "peek did not refill" false
    (Monitor.Token_bucket.admit tb ~now:0. ~bytes:1000);
  Alcotest.(check (float 1e-6)) "peek at now is the live fill" 0.
    (Monitor.Token_bucket.available_bits tb ~now:0.)

let tb_invalid_args () =
  Alcotest.(check bool) "zero rate" true
    (try ignore (Monitor.Token_bucket.create ~rate:Bandwidth.zero ~burst:0.1 ~now:0.); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero burst" true
    (try ignore (Monitor.Token_bucket.create ~rate:(Bandwidth.of_mbps 1.) ~burst:0. ~now:0.); false
     with Invalid_argument _ -> true)

let prop_tb_never_exceeds_rate_plus_burst =
  QCheck2.Test.make ~name:"token bucket: admitted volume ≤ rate·t + burst" ~count:50
    QCheck2.Gen.(list_size (return 500) (pair (1 -- 1500) (1 -- 20)))
    (fun pkts ->
      let rate = Bandwidth.of_mbps 1. in
      let tb = Monitor.Token_bucket.create ~rate ~burst:0.1 ~now:0. in
      let now = ref 0. and admitted_bits = ref 0. in
      List.for_all
        (fun (bytes, dt_ms) ->
          now := !now +. (float_of_int dt_ms /. 1000.);
          if Monitor.Token_bucket.admit tb ~now:!now ~bytes then
            admitted_bits := !admitted_bits +. (8. *. float_of_int bytes);
          !admitted_bits <= (Bandwidth.to_bps rate *. !now) +. (Bandwidth.to_bps rate *. 0.1) +. 1e-6)
        pkts)

(* ---------- Duplicate filter ---------- *)

let dup_catches_replay () =
  let f = Monitor.Duplicate_filter.create ~expected:10_000 ~fp_rate:1e-4 ~window:2. ~now:0. in
  Alcotest.(check bool) "first sighting" true
    (Monitor.Duplicate_filter.check_and_insert f ~now:0. 12345);
  Alcotest.(check bool) "replay caught" false
    (Monitor.Duplicate_filter.check_and_insert f ~now:0.5 12345);
  Alcotest.(check bool) "still caught in previous window" false
    (Monitor.Duplicate_filter.check_and_insert f ~now:2.5 12345)

let dup_ages_out () =
  let f = Monitor.Duplicate_filter.create ~expected:10_000 ~fp_rate:1e-4 ~window:1. ~now:0. in
  ignore (Monitor.Duplicate_filter.check_and_insert f ~now:0. 77);
  (* After two full windows the entry is forgotten. *)
  ignore (Monitor.Duplicate_filter.check_and_insert f ~now:1.1 1);
  ignore (Monitor.Duplicate_filter.check_and_insert f ~now:2.2 2);
  Alcotest.(check bool) "aged out" true
    (Monitor.Duplicate_filter.check_and_insert f ~now:2.3 77)

let dup_adversarial_keys () =
  (* Regression: index derivation used [abs (h1 + i·h2) mod bits];
     [abs min_int = min_int], so keys whose mixed hash landed on
     [min_int] produced a negative index and an out-of-bounds Bytes
     access. Adversarial keys must neither raise nor be missed. *)
  let f = Monitor.Duplicate_filter.create ~expected:10_000 ~fp_rate:1e-4 ~window:2. ~now:0. in
  let keys = [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1 lsl 61 ] in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d fresh" k)
        true
        (Monitor.Duplicate_filter.check_and_insert f ~now:0.1 k))
    keys;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d replay caught" k)
        false
        (Monitor.Duplicate_filter.check_and_insert f ~now:0.2 k))
    keys

let dup_idle_gap_no_false_positive () =
  (* Regression: after an idle gap of ≥ 2 windows, a single rotation
     kept the stale generation alive as [previous], so the first legit
     packets after the gap were falsely flagged as duplicates. *)
  let f = Monitor.Duplicate_filter.create ~expected:10_000 ~fp_rate:1e-4 ~window:1. ~now:0. in
  ignore (Monitor.Duplicate_filter.check_and_insert f ~now:0. 4242);
  (* Idle for 5 windows, then the same identifier returns (e.g. a
     retransmit long past the freshness window — the router's
     timestamp check handles staleness, not the filter). *)
  Alcotest.(check bool) "fresh after long idle gap" true
    (Monitor.Duplicate_filter.check_and_insert f ~now:5. 4242);
  (* And replay suppression still works after the clear. *)
  Alcotest.(check bool) "replay caught after clear" false
    (Monitor.Duplicate_filter.check_and_insert f ~now:5.1 4242)

let dup_occupancy_gauges () =
  let f = Monitor.Duplicate_filter.create ~expected:10_000 ~fp_rate:1e-4 ~window:2. ~now:0. in
  Alcotest.(check int) "empty filter has no bits set" 0
    (Monitor.Duplicate_filter.bits_set f);
  for k = 1 to 1000 do
    ignore (Monitor.Duplicate_filter.check_and_insert f ~now:0.1 k)
  done;
  Alcotest.(check bool) "bits set grows" true (Monitor.Duplicate_filter.bits_set f > 0);
  let r = Monitor.Duplicate_filter.fill_ratio f in
  Alcotest.(check bool) (Printf.sprintf "fill ratio in (0,1): %f" r) true
    (r > 0. && r < 1.);
  (* Observation-only: reading the gauges twice changes nothing. *)
  Alcotest.(check int) "bits_set is pure"
    (Monitor.Duplicate_filter.bits_set f)
    (Monitor.Duplicate_filter.bits_set f)

let dup_no_false_negatives () =
  (* Within the window, every inserted key must be caught on replay. *)
  let f = Monitor.Duplicate_filter.create ~expected:50_000 ~fp_rate:1e-3 ~window:10. ~now:0. in
  for k = 1 to 10_000 do
    ignore (Monitor.Duplicate_filter.check_and_insert f ~now:0.1 k)
  done;
  let missed = ref 0 in
  for k = 1 to 10_000 do
    if Monitor.Duplicate_filter.check_and_insert f ~now:0.2 k then incr missed
  done;
  Alcotest.(check int) "no false negatives" 0 !missed

let dup_false_positive_rate () =
  let f = Monitor.Duplicate_filter.create ~expected:50_000 ~fp_rate:1e-3 ~window:10. ~now:0. in
  for k = 1 to 50_000 do
    ignore (Monitor.Duplicate_filter.check_and_insert f ~now:0.1 k)
  done;
  (* Fresh keys should almost always be accepted. *)
  let fp = ref 0 in
  for k = 1_000_000 to 1_010_000 do
    if not (Monitor.Duplicate_filter.check_and_insert f ~now:0.2 k) then incr fp
  done;
  Alcotest.(check bool) (Printf.sprintf "fp rate ok (%d/10000)" !fp) true (!fp < 100)

(* Seeded Bloom-quality check: at its design load the filter's measured
   false-positive rate stays within [fp_rate] plus a 3σ binomial
   allowance, for well-spread random keys and for the small sequential
   ints an unmixed filter would index badly. *)
let dup_fp_rate_at_design_load () =
  let expected = 200_000 and fp_rate = 1e-3 in
  let bound =
    fp_rate +. (3. *. Float.sqrt (fp_rate *. (1. -. fp_rate) /. float_of_int expected))
  in
  let measure what ~insert ~probe =
    let f =
      Monitor.Duplicate_filter.create ~expected ~fp_rate ~window:10. ~now:0.
    in
    Array.iter (fun k -> ignore (Monitor.Duplicate_filter.check_and_insert f ~now:0.1 k)) insert;
    let fp = ref 0 in
    Array.iter
      (fun k -> if Monitor.Duplicate_filter.mem f k then incr fp)
      probe;
    let rate = float_of_int !fp /. float_of_int (Array.length probe) in
    if rate > bound then
      Alcotest.failf "%s keys: fp rate %.5f (%d/%d) above %.5f" what rate !fp
        (Array.length probe) bound
  in
  let rng = Random.State.make [| 20211207 |] in
  let seen = Hashtbl.create (2 * expected) in
  let fresh () =
    let rec go () =
      let k = Random.State.full_int rng max_int in
      if Hashtbl.mem seen k then go () else (Hashtbl.add seen k (); k)
    in
    go ()
  in
  let random_in = Array.init expected (fun _ -> fresh ()) in
  let random_out = Array.init expected (fun _ -> fresh ()) in
  measure "random" ~insert:random_in ~probe:random_out;
  measure "sequential" ~insert:(Array.init expected Fun.id)
    ~probe:(Array.init expected (fun i -> expected + i))

let dup_memory_bounded () =
  let f = Monitor.Duplicate_filter.create ~expected:1_000_000 ~fp_rate:1e-4 ~window:2. ~now:0. in
  (* ~2.4 MB per filter generation for 1M packets at 1e-4. *)
  Alcotest.(check bool) "under 8 MB" true (Monitor.Duplicate_filter.memory_bytes f < 8_000_000)

(* ---------- Overuse flow detector ---------- *)

let key src_num id : Ids.res_key = { src_as = Ids.asn ~isd:1 ~num:src_num; res_id = id }

(* [Ofd.observe] for a flow key, with the packet's usage given in
   normalized seconds: [normalized] seconds of a 1 Gbps reservation. *)
let observe ofd ~now ~(key : Ids.res_key) ~normalized =
  Monitor.Ofd.observe ofd ~now ~isd:key.src_as.isd ~num:key.src_as.num
    ~res_id:key.res_id
    ~bits:(Float.to_int (Float.round (normalized *. 1e9)))
    ~bw_bps:1_000_000_000

(* Drive [n] packets of a flow at [factor]× its reservation over [window]s. *)
let drive_flow ofd ~key ~factor ~window ~n =
  let flagged = ref false in
  for i = 1 to n do
    let now = window *. float_of_int i /. float_of_int n in
    let normalized = factor *. window /. float_of_int n in
    match observe ofd ~now ~key ~normalized with
    | `Suspect -> flagged := true
    | `Ok -> ()
  done;
  !flagged

let ofd_flags_overuser () =
  let ofd = Monitor.Ofd.create ~window:1.0 ~threshold:1.2 ~now:0. () in
  Alcotest.(check bool) "2x overuser flagged" true
    (drive_flow ofd ~key:(key 1 1) ~factor:2.0 ~window:1.0 ~n:100)

let ofd_spares_conforming () =
  let ofd = Monitor.Ofd.create ~window:1.0 ~threshold:1.2 ~now:0. () in
  Alcotest.(check bool) "conforming not flagged" false
    (drive_flow ofd ~key:(key 1 2) ~factor:0.9 ~window:1.0 ~n:100)

let ofd_no_false_negative_for_heavy_flow () =
  (* The count-min estimate never under-counts, so a flow whose true
     usage exceeds the threshold is always flagged within the window. *)
  let ofd = Monitor.Ofd.create ~width:256 ~depth:2 ~window:1.0 ~threshold:1.2 ~now:0. () in
  (* Background noise. *)
  for i = 1 to 500 do
    ignore (observe ofd ~now:0.1 ~key:(key 2 i) ~normalized:0.001)
  done;
  Alcotest.(check bool) "heavy flow flagged despite noise" true
    (drive_flow ofd ~key:(key 1 3) ~factor:3.0 ~window:0.8 ~n:50)

let ofd_window_reset () =
  let ofd = Monitor.Ofd.create ~window:1.0 ~threshold:1.2 ~now:0. () in
  (* Stay inside the first window so the suspect set is inspectable
     before rotation clears it. *)
  ignore (drive_flow ofd ~key:(key 1 4) ~factor:2.5 ~window:0.9 ~n:100);
  Alcotest.(check bool) "suspect recorded" true
    (List.exists (fun k -> Ids.equal_res_key k (key 1 4)) (Monitor.Ofd.suspects ofd));
  (* New window: counters and suspects reset. *)
  ignore (observe ofd ~now:2.5 ~key:(key 1 5) ~normalized:0.001);
  Alcotest.(check (list int)) "suspects cleared" []
    (List.map (fun _ -> 0) (Monitor.Ofd.suspects ofd));
  Alcotest.(check bool) "estimate reset" true
    (Monitor.Ofd.estimate ofd (key 1 4) < 0.1)

let ofd_versions_share_flow () =
  (* Packets with the same (SrcAS, ResId) aggregate regardless of which
     EER version produced them — tested via the shared key. *)
  let ofd = Monitor.Ofd.create ~window:1.0 ~threshold:1.0 ~now:0. () in
  let k = key 3 9 in
  let flagged = ref false in
  for i = 1 to 100 do
    let now = float_of_int i /. 100. in
    (* two "versions" interleaved, each at 0.75x → combined 1.5x *)
    (match observe ofd ~now ~key:k ~normalized:0.0075 with
    | `Suspect -> flagged := true
    | `Ok -> ());
    match observe ofd ~now ~key:k ~normalized:0.0075 with
    | `Suspect -> flagged := true
    | `Ok -> ()
  done;
  Alcotest.(check bool) "combined versions flagged" true !flagged

let ofd_memory_bounded () =
  let ofd = Monitor.Ofd.create ~width:4096 ~depth:4 ~window:1.0 ~threshold:1.2 ~now:0. () in
  Alcotest.(check int) "footprint" (4096 * 4 * 8) (Monitor.Ofd.memory_bytes ofd)

let ofd_max_cell_gauge () =
  let ofd = Monitor.Ofd.create ~width:64 ~depth:2 ~window:1.0 ~threshold:1.2 ~now:0. () in
  Alcotest.(check (float 0.)) "empty sketch" 0. (Monitor.Ofd.max_cell ofd);
  ignore (observe ofd ~now:0.1 ~key:(key 1 1) ~normalized:0.25);
  ignore (observe ofd ~now:0.2 ~key:(key 1 1) ~normalized:0.25);
  ignore (observe ofd ~now:0.3 ~key:(key 1 2) ~normalized:0.1);
  (* Every row got 0.5 from flow 1; the max cell is ≥ that and the
     estimate never exceeds it. *)
  let m = Monitor.Ofd.max_cell ofd in
  Alcotest.(check bool) (Printf.sprintf "max cell %f >= 0.5" m) true (m >= 0.5 -. 1e-9);
  Alcotest.(check bool) "estimate bounded by max cell" true
    (Monitor.Ofd.estimate ofd (key 1 1) <= m +. 1e-9);
  (* Observation-only. *)
  Alcotest.(check (float 0.)) "max_cell is pure" m (Monitor.Ofd.max_cell ofd)

let prop_ofd_never_underestimates =
  QCheck2.Test.make ~name:"ofd: estimate ≥ true usage" ~count:30
    QCheck2.Gen.(list_size (10 -- 100) (pair (1 -- 20) (1 -- 100)))
    (fun obs ->
      let ofd = Monitor.Ofd.create ~width:64 ~depth:2 ~window:100. ~threshold:10. ~now:0. () in
      let truth = Hashtbl.create 16 in
      List.iter
        (fun (flow, amount) ->
          let k = key 1 flow in
          let v = float_of_int amount /. 1000. in
          Hashtbl.replace truth flow
            (Option.value ~default:0. (Hashtbl.find_opt truth flow) +. v);
          ignore (observe ofd ~now:1. ~key:k ~normalized:v))
        obs;
      Hashtbl.fold
        (fun flow total acc ->
          acc && Monitor.Ofd.estimate ofd (key 1 flow) >= total -. 1e-9)
        truth true)

(* ---------- Blocklist ---------- *)

let blocklist_basics () =
  let sim = Timebase.Sim_clock.create () in
  let bl = Monitor.Blocklist.create ~clock:(Timebase.Sim_clock.clock sim) () in
  let bad = Ids.asn ~isd:1 ~num:666 in
  Alcotest.(check bool) "initially clear" false (Monitor.Blocklist.is_blocked bl bad);
  Monitor.Blocklist.block bl bad ~duration:None;
  Alcotest.(check bool) "blocked" true (Monitor.Blocklist.is_blocked bl bad);
  Alcotest.(check int) "size" 1 (Monitor.Blocklist.size bl);
  Monitor.Blocklist.unblock bl bad;
  Alcotest.(check bool) "unblocked" false (Monitor.Blocklist.is_blocked bl bad)

let blocklist_expiry () =
  let sim = Timebase.Sim_clock.create () in
  let bl = Monitor.Blocklist.create ~clock:(Timebase.Sim_clock.clock sim) () in
  let bad = Ids.asn ~isd:1 ~num:667 in
  Monitor.Blocklist.block bl bad ~duration:(Some 60.);
  Alcotest.(check bool) "blocked now" true (Monitor.Blocklist.is_blocked bl bad);
  Timebase.Sim_clock.advance sim 61.;
  Alcotest.(check bool) "expired" false (Monitor.Blocklist.is_blocked bl bad);
  Alcotest.(check int) "entry purged" 0 (Monitor.Blocklist.size bl)

let blocklist_boundary_at_deadline () =
  (* Pins the expiry convention: a block of duration [d] covers the
     half-open interval [now, now + d) — blocked strictly before the
     deadline, free at exactly the deadline. Same convention as the
     OFD's window rotation. *)
  let sim = Timebase.Sim_clock.create () in
  let bl = Monitor.Blocklist.create ~clock:(Timebase.Sim_clock.clock sim) () in
  let bad = Ids.asn ~isd:1 ~num:668 in
  (* Dyadic durations keep the clock arithmetic exact, so the test
     really probes the boundary instant, not float rounding. *)
  Monitor.Blocklist.block bl bad ~duration:(Some 60.);
  Timebase.Sim_clock.advance sim 59.5;
  Alcotest.(check bool) "blocked just below deadline" true
    (Monitor.Blocklist.is_blocked bl bad);
  Timebase.Sim_clock.advance sim 0.5;
  Alcotest.(check bool) "free at exactly the deadline" false
    (Monitor.Blocklist.is_blocked bl bad)

let blocklist_lazy_purge_and_reblock () =
  let sim = Timebase.Sim_clock.create () in
  let bl = Monitor.Blocklist.create ~clock:(Timebase.Sim_clock.clock sim) () in
  let bad = Ids.asn ~isd:1 ~num:669 in
  Monitor.Blocklist.block bl bad ~duration:(Some 10.);
  Timebase.Sim_clock.advance sim 10.;
  (* Removal is lazy: the expired entry lingers until a query sees it
     (the paper-sized list makes eager sweeps pointless)... *)
  Alcotest.(check int) "expired entry lingers until queried" 1
    (Monitor.Blocklist.size bl);
  Alcotest.(check bool) "query reports free" false
    (Monitor.Blocklist.is_blocked bl bad);
  Alcotest.(check int) "query purged the entry" 0 (Monitor.Blocklist.size bl);
  (* ...and a purged AS can be re-blocked with a fresh deadline. *)
  Monitor.Blocklist.block bl bad ~duration:(Some 4.);
  Timebase.Sim_clock.advance sim 3.5;
  Alcotest.(check bool) "re-blocked" true (Monitor.Blocklist.is_blocked bl bad);
  Timebase.Sim_clock.advance sim 0.5;
  Alcotest.(check bool) "re-block expires at its own deadline" false
    (Monitor.Blocklist.is_blocked bl bad)

let blocklist_permanent_never_expires () =
  let sim = Timebase.Sim_clock.create () in
  let bl = Monitor.Blocklist.create ~clock:(Timebase.Sim_clock.clock sim) () in
  let bad = Ids.asn ~isd:1 ~num:670 in
  Monitor.Blocklist.block bl bad ~duration:None;
  Timebase.Sim_clock.advance sim 1e9;
  Alcotest.(check bool) "permanent block survives any clock" true
    (Monitor.Blocklist.is_blocked bl bad);
  Monitor.Blocklist.unblock bl bad;
  Alcotest.(check bool) "only unblock lifts it" false
    (Monitor.Blocklist.is_blocked bl bad)

let suite =
  [
    Alcotest.test_case "token bucket: conforming flow passes" `Quick tb_conforming_flow_passes;
    Alcotest.test_case "token bucket: overuse dropped" `Quick tb_overuse_dropped;
    Alcotest.test_case "token bucket: burst allowance" `Quick tb_burst_allowance;
    Alcotest.test_case "token bucket: rate change" `Quick tb_set_rate;
    Alcotest.test_case "token bucket: invalid args" `Quick tb_invalid_args;
    Alcotest.test_case "token bucket: peek is observation-only" `Quick
      tb_peek_is_observation_only;
    QCheck_alcotest.to_alcotest prop_tb_never_exceeds_rate_plus_burst;
    Alcotest.test_case "duplicate filter: catches replay" `Quick dup_catches_replay;
    Alcotest.test_case "duplicate filter: ages out" `Quick dup_ages_out;
    Alcotest.test_case "duplicate filter: adversarial keys" `Quick dup_adversarial_keys;
    Alcotest.test_case "duplicate filter: no false positives after idle gap" `Quick
      dup_idle_gap_no_false_positive;
    Alcotest.test_case "duplicate filter: occupancy gauges" `Quick dup_occupancy_gauges;
    Alcotest.test_case "duplicate filter: no false negatives" `Quick dup_no_false_negatives;
    Alcotest.test_case "duplicate filter: false-positive rate" `Quick dup_false_positive_rate;
    Alcotest.test_case "duplicate filter: fp rate at design load" `Quick
      dup_fp_rate_at_design_load;
    Alcotest.test_case "duplicate filter: memory bounded" `Quick dup_memory_bounded;
    Alcotest.test_case "OFD: flags overuser" `Quick ofd_flags_overuser;
    Alcotest.test_case "OFD: spares conforming flow" `Quick ofd_spares_conforming;
    Alcotest.test_case "OFD: heavy flow found despite noise" `Quick ofd_no_false_negative_for_heavy_flow;
    Alcotest.test_case "OFD: window reset" `Quick ofd_window_reset;
    Alcotest.test_case "OFD: versions share one flow" `Quick ofd_versions_share_flow;
    Alcotest.test_case "OFD: memory bounded" `Quick ofd_memory_bounded;
    Alcotest.test_case "OFD: max-cell gauge" `Quick ofd_max_cell_gauge;
    QCheck_alcotest.to_alcotest prop_ofd_never_underestimates;
    Alcotest.test_case "blocklist: basics" `Quick blocklist_basics;
    Alcotest.test_case "blocklist: expiry" `Quick blocklist_expiry;
    Alcotest.test_case "blocklist: half-open expiry boundary" `Quick
      blocklist_boundary_at_deadline;
    Alcotest.test_case "blocklist: lazy purge and re-block" `Quick
      blocklist_lazy_purge_and_reblock;
    Alcotest.test_case "blocklist: permanent entry" `Quick
      blocklist_permanent_never_expires;
  ]
