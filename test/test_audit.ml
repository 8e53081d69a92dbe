(** Randomized invariant auditing: drive the memoizing admission
    structures ({!Backends.Ntube.Seg}, {!Backends.Ntube.Eer},
    {!Distributed}) and the monitor's {!Monitor.Token_bucket} through QCheck-generated
    admit/renew/remove/expire sequences, and after {e every} single
    operation recompute all memoized aggregates from scratch via
    [audit] — any drift between the incremental state and the
    recomputed truth fails the property. Separate unit tests check
    that a deliberately corrupted aggregate is detected. *)

open Colibri_types
open Colibri

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps
let asn n = Ids.asn ~isd:1 ~num:n
let key src id : Ids.res_key = { src_as = asn src; res_id = id }

let check_clean what errs =
  match errs with
  | [] -> true
  | errs ->
      QCheck2.Test.fail_reportf "%s audit found drift:@.%a" what
        Fmt.(list ~sep:(any "@.") string)
        errs

(* --- Backends.Ntube.Seg ------------------------------------------ *)

(* Heterogeneous capacities so the three demand-adjustment layers
   (ingress cap, tube cap, per-source cap) all actually bind. *)
let seg_capacity iface = gbps (float_of_int (2 + (iface mod 3)))

let run_seg_sequence seed =
  let rng = Random.State.make [| seed; 0xA0D17 |] in
  let t = Backends.Ntube.Seg.create ~capacity:seg_capacity ~share:0.8 () in
  let live = ref [] in
  for step = 1 to 50 do
    let now = float_of_int step in
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
        (* Admit: strictly positive demand, small key space so renewals
           (same key, higher version) and collisions are common. *)
        let k = key (1 + Random.State.int rng 5) (1 + Random.State.int rng 8) in
        let version = 1 + Random.State.int rng 3 in
        let demand = mbps (1. +. Random.State.float rng 3000.) in
        (match
           Backends.Ntube.Seg.admit t ~key:k ~version
             ~src:(asn (1 + Random.State.int rng 4))
             ~ingress:(1 + Random.State.int rng 3)
             ~egress:(1 + Random.State.int rng 3)
             ~demand
             ~min_bw:(mbps (Random.State.float rng 5.))
             ~exp_time:(now +. 100.) ~now
         with
        | Backends.Ntube.Granted _ -> live := (k, version) :: !live
        | Backends.Ntube.Denied _ -> ())
    | 6 | 7 -> (
        (* Renewal backward pass: shrink a live grant to the path-wide
           minimum (a fraction of the local grant). *)
        match !live with
        | [] -> ()
        | l ->
            let k, version = List.nth l (Random.State.int rng (List.length l)) in
            (match Backends.Ntube.Seg.granted_of t ~key:k ~version with
            | Some g ->
                let granted =
                  Bandwidth.scale (0.1 +. Random.State.float rng 0.9) g
                in
                ignore (Backends.Ntube.Seg.set_granted t ~key:k ~version ~granted)
            | None -> ()))
    | 8 -> (
        (* Cleanup of a live version. *)
        match !live with
        | [] -> ()
        | l ->
            let k, version = List.nth l (Random.State.int rng (List.length l)) in
            Backends.Ntube.Seg.remove t ~key:k ~version;
            live := List.filter (fun e -> e <> (k, version)) !live)
    | _ ->
        (* Remove of a (likely) absent version must be a clean no-op. *)
        Backends.Ntube.Seg.remove t
          ~key:(key (1 + Random.State.int rng 9) (1 + Random.State.int rng 20))
          ~version:(1 + Random.State.int rng 3));
    ignore (check_clean "Seg" (Backends.Ntube.Seg.audit t))
  done;
  true

let prop_seg_audit_clean =
  QCheck2.Test.make ~name:"seg: audit stays empty under random sequences"
    ~count:200
    QCheck2.Gen.(1 -- 1_000_000)
    run_seg_sequence

(* --- Backends.Ntube.Eer ------------------------------------------ *)

let run_eer_sequence seed =
  let rng = Random.State.make [| seed; 0xEE12 |] in
  let t = Backends.Ntube.Eer.create () in
  let segr i : Ids.res_key = { src_as = asn (100 + i); res_id = i } in
  let now = ref 0. in
  for _step = 1 to 50 do
    now := !now +. Random.State.float rng 3.;
    let flow = key (1 + Random.State.int rng 6) (1 + Random.State.int rng 12) in
    let version = 1 + Random.State.int rng 3 in
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
        let s1 = segr (1 + Random.State.int rng 3) in
        let segrs =
          if Random.State.bool rng then [ (s1, gbps 1.) ]
          else [ (s1, gbps 1.); (segr 4, gbps 2.) ]
        in
        let via_up =
          (* Transfer-AS admission: a core SegR shared between up-SegRs
             (§4.7), exercising the pair-competition aggregates. *)
          if Random.State.int rng 3 = 0 then
            Some (segr 9, segr (1 + Random.State.int rng 2), gbps 1.)
          else None
        in
        ignore
          (Backends.Ntube.Eer.admit
             ~partial:(Random.State.bool rng)
             t ~key:flow ~version ~segrs ~via_up
             ~demand:(mbps (1. +. Random.State.float rng 400.))
             ~exp_time:(!now +. Random.State.float rng 20.)
             ~now:!now)
    | 7 | 8 ->
        (* Failed-setup cleanup: also hits absent (key, version). *)
        Backends.Ntube.Eer.remove_version t ~key:flow ~version ~now:!now
    | _ ->
        (* Let time pass so versions expire (step + expiry is the
           "expire" op of the sequence). *)
        now := !now +. 25.);
    ignore (check_clean "Eer" (Backends.Ntube.Eer.audit t))
  done;
  true

let prop_eer_audit_clean =
  QCheck2.Test.make ~name:"eer: audit stays empty under random sequences"
    ~count:200
    QCheck2.Gen.(1 -- 1_000_000)
    run_eer_sequence

(* --- Distributed --------------------------------------------------- *)

let run_distributed_sequence seed =
  let rng = Random.State.make [| seed; 0xD157 |] in
  let t = Distributed.create ~capacity:seg_capacity () in
  let segr i : Ids.res_key = { src_as = asn (100 + i); res_id = i } in
  for step = 1 to 40 do
    let now = float_of_int step in
    let ingress = 1 + Random.State.int rng 4 in
    let s = segr (1 + Random.State.int rng 5) in
    ignore
      (Distributed.admit_eer t
         ~key:(key (1 + Random.State.int rng 6) step)
         ~version:(1 + Random.State.int rng 2)
         ~segrs:[ (s, gbps 1.) ]
         ~via_up:None ~segr_ingress:ingress
         ~demand:(mbps (1. +. Random.State.float rng 200.))
         ~exp_time:(now +. 30.) ~now);
    ignore (check_clean "Distributed" (Distributed.audit t))
  done;
  true

let prop_distributed_audit_clean =
  QCheck2.Test.make ~name:"distributed: audit stays empty under random sequences"
    ~count:150
    QCheck2.Gen.(1 -- 1_000_000)
    run_distributed_sequence

(* --- Monitor.Token_bucket ------------------------------------------ *)

let run_bucket_sequence seed =
  let rng = Random.State.make [| seed; 0xB0C4E7 |] in
  let rate = mbps (10. +. Random.State.float rng 990.) in
  let burst = 0.05 +. Random.State.float rng 0.15 in
  let b = Monitor.Token_bucket.create ~rate ~burst ~now:0. in
  let now = ref 0. in
  for _ = 1 to 60 do
    now := !now +. Random.State.float rng 0.01;
    (if Random.State.int rng 12 = 0 then
       Monitor.Token_bucket.set_rate b
         ~rate:(mbps (10. +. Random.State.float rng 990.))
         ~now:!now
     else
       ignore
         (Monitor.Token_bucket.admit b ~now:!now
            ~bytes:(Random.State.int rng 3000)));
    ignore (check_clean "Token_bucket" (Monitor.Token_bucket.audit b))
  done;
  true

let prop_bucket_audit_clean =
  QCheck2.Test.make ~name:"token bucket: audit stays empty under random sequences"
    ~count:150
    QCheck2.Gen.(1 -- 1_000_000)
    run_bucket_sequence

(* --- Hot-path regressions, randomized ------------------------------ *)

(* Full-range keys, biased toward the values that used to break the
   [abs … mod] index derivation ([abs min_int = min_int]). *)
let adversarial_int =
  QCheck2.Gen.(
    oneof
      [ int; oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1 ] ])

let prop_dup_replay_caught =
  QCheck2.Test.make
    ~name:"dup filter: total over full-range keys, replays caught" ~count:100
    QCheck2.Gen.(list_size (1 -- 50) adversarial_int)
    (fun keys ->
      let keys = List.sort_uniq compare keys in
      let f =
        Monitor.Duplicate_filter.create ~expected:10_000 ~fp_rate:1e-4
          ~window:5. ~now:0.
      in
      List.iter
        (fun k -> ignore (Monitor.Duplicate_filter.check_and_insert f ~now:0.1 k))
        keys;
      List.for_all
        (fun k -> not (Monitor.Duplicate_filter.check_and_insert f ~now:0.2 k))
        keys)

let prop_dup_idle_gap_fresh =
  QCheck2.Test.make
    ~name:"dup filter: both generations cleared after ≥2-window idle gap"
    ~count:100
    QCheck2.Gen.(
      triple
        (list_size (1 -- 30) adversarial_int)
        (float_range 0.1 5.) (float_range 2. 10.))
    (fun (keys, window, gapx) ->
      let keys = List.sort_uniq compare keys in
      let f =
        Monitor.Duplicate_filter.create ~expected:10_000 ~fp_rate:1e-4 ~window
          ~now:0.
      in
      List.iter
        (fun k ->
          ignore
            (Monitor.Duplicate_filter.check_and_insert f ~now:(window /. 2.) k))
        keys;
      (* Deterministic, not probabilistic: after an idle gap of at least
         two windows both generations must be empty, so every key reads
         fresh. *)
      let now = (window /. 2.) +. (gapx *. window) in
      List.for_all
        (fun k -> Monitor.Duplicate_filter.check_and_insert f ~now k)
        keys)

let audit_secret = Hvf.as_secret_of_material (Bytes.make 16 'K')

(* Every sub-9-byte frame must reach a worker's parser and come back as
   a parse error; a raise in the dispatcher or in a worker (re-raised
   by the join in [shutdown]) fails the property. *)
let prop_short_frames_parse_error =
  QCheck2.Test.make ~name:"parallel router: short frames never raise" ~count:20
    QCheck2.Gen.(pair (1 -- 4) (list_size (1 -- 16) (pair (0 -- 8) char)))
    (fun (workers, frames) ->
      let pr =
        Dataplane_shard.Parallel_router.create ~secret:audit_secret
          ~clock:(fun () -> 0.)
          ~workers (asn 2)
      in
      List.iter
        (fun (len, c) ->
          while
            not
              (Dataplane_shard.Parallel_router.submit pr ~raw:(Bytes.make len c)
                 ~payload_len:0)
          do
            Domain.cpu_relax ()
          done)
        frames;
      Dataplane_shard.Parallel_router.shutdown pr;
      List.assoc_opt
        (Obs.labeled "router_dropped_total" [ ("reason", "parse_error") ])
        (Dataplane_shard.Parallel_router.metrics pr)
      = Some (Obs.Counter (List.length frames)))

let prop_peek_is_transparent =
  QCheck2.Test.make
    ~name:"token bucket: available_bits never perturbs admit decisions"
    ~count:100
    QCheck2.Gen.(list_size (1 -- 60) (triple (1 -- 3000) (0 -- 20) bool))
    (fun ops ->
      (* Twin buckets driven by the same admit sequence; [a] is also
         peeked (with a skewed, future clock) before each admit. Every
         verdict must still agree with the unpeeked twin. *)
      let rate = mbps 50. in
      let a = Monitor.Token_bucket.create ~rate ~burst:0.1 ~now:0. in
      let b = Monitor.Token_bucket.create ~rate ~burst:0.1 ~now:0. in
      let now = ref 0. in
      List.for_all
        (fun (bytes, dt_ms, peek) ->
          now := !now +. (float_of_int dt_ms /. 1000.);
          if peek then
            ignore (Monitor.Token_bucket.available_bits a ~now:(!now +. 1000.));
          Monitor.Token_bucket.admit a ~now:!now ~bytes
          = Monitor.Token_bucket.admit b ~now:!now ~bytes)
        ops)

(* --- Corruption detection ------------------------------------------ *)

let corrupted_is_caught name audit corrupt apply_workload () =
  let errs_before = audit () in
  Alcotest.(check (list string)) (name ^ ": clean after workload") [] errs_before;
  apply_workload ();
  Alcotest.(check (list string)) (name ^ ": still clean") [] (audit ());
  corrupt ();
  Alcotest.(check bool)
    (name ^ ": corruption detected")
    true
    (audit () <> [])

let seg_detects_corruption () =
  let t = Backends.Ntube.Seg.create ~capacity:seg_capacity () in
  corrupted_is_caught "seg"
    (fun () -> Backends.Ntube.Seg.audit t)
    (fun () -> Backends.Ntube.Seg.corrupt_for_test t)
    (fun () ->
      ignore
        (Backends.Ntube.Seg.admit t ~key:(key 1 1) ~version:1 ~src:(asn 1) ~ingress:1
           ~egress:2 ~demand:(mbps 100.) ~min_bw:(mbps 1.) ~exp_time:100.
           ~now:0.))
    ()

let eer_detects_corruption () =
  let t = Backends.Ntube.Eer.create () in
  corrupted_is_caught "eer"
    (fun () -> Backends.Ntube.Eer.audit t)
    (fun () -> Backends.Ntube.Eer.corrupt_for_test t)
    (fun () ->
      ignore
        (Backends.Ntube.Eer.admit t ~key:(key 1 1) ~version:1
           ~segrs:[ (key 100 1, gbps 1.) ]
           ~via_up:None ~demand:(mbps 10.) ~exp_time:16. ~now:0.))
    ()

let distributed_detects_corruption () =
  let t = Distributed.create ~capacity:seg_capacity () in
  corrupted_is_caught "distributed"
    (fun () -> Distributed.audit t)
    (fun () -> Distributed.corrupt_for_test t)
    (fun () ->
      ignore
        (Distributed.admit_eer t ~key:(key 1 1) ~version:1
           ~segrs:[ (key 100 1, gbps 1.) ]
           ~via_up:None ~segr_ingress:1 ~demand:(mbps 10.) ~exp_time:16.
           ~now:0.))
    ()

let bucket_detects_corruption () =
  let b = Monitor.Token_bucket.create ~rate:(mbps 100.) ~burst:0.1 ~now:0. in
  corrupted_is_caught "token bucket"
    (fun () -> Monitor.Token_bucket.audit b)
    (fun () -> Monitor.Token_bucket.corrupt_for_test b)
    (fun () -> ignore (Monitor.Token_bucket.admit b ~now:0.001 ~bytes:100))
    ()

let suite =
  [
    QCheck_alcotest.to_alcotest prop_seg_audit_clean;
    QCheck_alcotest.to_alcotest prop_eer_audit_clean;
    QCheck_alcotest.to_alcotest prop_distributed_audit_clean;
    QCheck_alcotest.to_alcotest prop_bucket_audit_clean;
    QCheck_alcotest.to_alcotest prop_dup_replay_caught;
    QCheck_alcotest.to_alcotest prop_dup_idle_gap_fresh;
    QCheck_alcotest.to_alcotest prop_short_frames_parse_error;
    QCheck_alcotest.to_alcotest prop_peek_is_transparent;
    Alcotest.test_case "seg: corrupt_for_test is detected" `Quick
      seg_detects_corruption;
    Alcotest.test_case "eer: corrupt_for_test is detected" `Quick
      eer_detects_corruption;
    Alcotest.test_case "distributed: corrupt_for_test is detected" `Quick
      distributed_detects_corruption;
    Alcotest.test_case "token bucket: corrupt_for_test is detected" `Quick
      bucket_detects_corruption;
  ]
