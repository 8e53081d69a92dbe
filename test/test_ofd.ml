(** Property and boundary tests for the overuse-flow detector
    ({!Monitor.Ofd}, §4.8).

    The QCheck properties pin the count-min contract the enforcement
    chain builds on: the estimate never under-counts the true per-flow
    usage (no false negatives), every flow exceeding [threshold ×
    window] is reported [`Suspect] within its window and at most once
    per window, and the observation API ([estimate], [max_cell],
    [suspects]) never mutates the sketch.

    The boundary regressions pin the window-rotation convention at
    exactly [now - window_start = window]: rotation fires and the
    boundary packet counts toward the {e new} window (half-open
    windows, [\[start, start + window)]) — the same convention the
    blocklist uses for expiry. *)

open Colibri_types

let key src_num id : Ids.res_key =
  { src_as = Ids.asn ~isd:1 ~num:src_num; res_id = id }

(* [Ofd.observe] for a flow key, with the packet's usage given in
   normalized seconds: [normalized] seconds of a 1 Gbps reservation. *)
let observe ofd ~now ~(key : Ids.res_key) ~normalized =
  Monitor.Ofd.observe ofd ~now ~isd:key.src_as.isd ~num:key.src_as.num
    ~res_id:key.res_id
    ~bits:(Float.to_int (Float.round (normalized *. 1e9)))
    ~bw_bps:1_000_000_000

let window = 1.0
let threshold = 1.2

let fresh ?(width = 128) ?(depth = 2) () =
  Monitor.Ofd.create ~width ~depth ~window ~threshold ~now:0. ()

(* A trace: packets (flow, milli-normalized units), all observed inside
   one window so rotation never interferes with the property. *)
let trace_gen =
  QCheck2.Gen.(list_size (10 -- 200) (pair (1 -- 10) (1 -- 300)))

let true_sums trace =
  let truth = Hashtbl.create 16 in
  List.iter
    (fun (flow, milli) ->
      let v = float_of_int milli /. 1000. in
      Hashtbl.replace truth flow
        (Option.value ~default:0. (Hashtbl.find_opt truth flow) +. v))
    trace;
  truth

(* The sketch's slot hash is a port of [caml_hash] over the unboxed
   fields; it must agree with [Hashtbl.hash] on the tuple for every
   int, including negative ones and those at or beyond 2^31, where
   [caml_hash_mix_intnat] folds the high half and the sign. *)
let prop_hash4_is_hashtbl_hash =
  let field =
    QCheck2.Gen.(
      oneof
        [
          int;
          int_range (-1000) 1000;
          map (fun d -> (1 lsl 31) + d) (int_range (-4) 4);
          map (fun d -> -(1 lsl 31) + d) (int_range (-4) 4);
          map (fun d -> (1 lsl 32) + d) (int_range (-4) 4);
          oneofl [ min_int; max_int; 0x9e3779b9; -1 ];
        ])
  in
  QCheck2.Test.make ~name:"ofd: hash4 = Hashtbl.hash of the 4-tuple" ~count:2000
    QCheck2.Gen.(quad field field field field)
    (fun (a, b, c, d) -> Monitor.Ofd.hash4 a b c d = Hashtbl.hash (a, b, c, d))

let prop_never_underestimates =
  QCheck2.Test.make ~name:"ofd: estimate ≥ true per-flow sum" ~count:100
    trace_gen (fun trace ->
      let ofd = fresh () in
      List.iter
        (fun (flow, milli) ->
          ignore
            (observe ofd ~now:0.5 ~key:(key 1 flow)
               ~normalized:(float_of_int milli /. 1000.)))
        trace;
      Hashtbl.fold
        (fun flow total acc ->
          acc && Monitor.Ofd.estimate ofd (key 1 flow) >= total -. 1e-9)
        (true_sums trace) true)

let prop_heavy_flagged_once_per_window =
  QCheck2.Test.make
    ~name:"ofd: overuser suspected within its window, at most once" ~count:100
    trace_gen (fun trace ->
      let ofd = fresh () in
      let flags = Hashtbl.create 16 in
      List.iter
        (fun (flow, milli) ->
          match
            observe ofd ~now:0.5 ~key:(key 1 flow)
              ~normalized:(float_of_int milli /. 1000.)
          with
          | `Suspect ->
              Hashtbl.replace flags flow
                (1 + Option.value ~default:0 (Hashtbl.find_opt flags flow))
          | `Ok -> ())
        trace;
      Hashtbl.fold
        (fun flow total acc ->
          let n = Option.value ~default:0 (Hashtbl.find_opt flags flow) in
          (* Over the threshold → flagged (the estimate dominates the
             true sum, so there are no false negatives); and never
             flagged twice in one window. *)
          acc && n <= 1
          && (total <= (threshold *. window) +. 1e-9 || n = 1)
          && (n = 0
             || List.exists
                  (fun k -> Ids.equal_res_key k (key 1 flow))
                  (Monitor.Ofd.suspects ofd)))
        (true_sums trace) true)

let prop_observation_pure =
  QCheck2.Test.make
    ~name:"ofd: estimate/max_cell/suspects are observation-only" ~count:50
    trace_gen (fun trace ->
      (* Two identical sketches over the same trace; one is probed
         after every packet. If probing mutated anything, the final
         states would diverge. *)
      let quiet = fresh () and probed = fresh () in
      let same = ref true in
      List.iter
        (fun (flow, milli) ->
          let k = key 1 flow and v = float_of_int milli /. 1000. in
          let a = observe quiet ~now:0.5 ~key:k ~normalized:v in
          let b = observe probed ~now:0.5 ~key:k ~normalized:v in
          (match (a, b) with
          | `Ok, `Ok | `Suspect, `Suspect -> ()
          | _ -> same := false);
          let e1 = Monitor.Ofd.estimate probed k in
          let e2 = Monitor.Ofd.estimate probed k in
          if e1 <> e2 then same := false;
          let m1 = Monitor.Ofd.max_cell probed in
          let m2 = Monitor.Ofd.max_cell probed in
          if m1 <> m2 then same := false;
          ignore (Monitor.Ofd.suspects probed))
        trace;
      !same
      && Monitor.Ofd.max_cell quiet = Monitor.Ofd.max_cell probed
      && Monitor.Ofd.observed_packets quiet
         = Monitor.Ofd.observed_packets probed
      && List.length (Monitor.Ofd.suspects quiet)
         = List.length (Monitor.Ofd.suspects probed)
      && Hashtbl.fold
           (fun flow _ acc ->
             acc
             && Monitor.Ofd.estimate quiet (key 1 flow)
                = Monitor.Ofd.estimate probed (key 1 flow))
           (true_sums trace) true)

(* ---------- Window-boundary regressions ---------- *)

let no_rotation_strictly_inside () =
  let ofd = fresh () in
  ignore (observe ofd ~now:0.4 ~key:(key 1 1) ~normalized:0.6);
  (* Just below the boundary: still the same window, usage accumulates. *)
  ignore (observe ofd ~now:0.9999 ~key:(key 1 1) ~normalized:0.1);
  Alcotest.(check (float 1e-9)) "usage accumulated" 0.7
    (Monitor.Ofd.estimate ofd (key 1 1));
  Alcotest.(check int) "both packets this window" 2
    (Monitor.Ofd.observed_packets ofd)

let rotation_at_exact_boundary () =
  let ofd = fresh () in
  ignore (observe ofd ~now:0.4 ~key:(key 1 1) ~normalized:0.6);
  (* At exactly now = window the sketch rotates and the boundary packet
     counts toward the NEW window: windows are [start, start+window). *)
  ignore (observe ofd ~now:1.0 ~key:(key 1 2) ~normalized:0.25);
  Alcotest.(check (float 1e-9)) "old window cleared" 0.
    (Monitor.Ofd.estimate ofd (key 1 1));
  Alcotest.(check (float 1e-9)) "boundary packet in new window" 0.25
    (Monitor.Ofd.estimate ofd (key 1 2));
  Alcotest.(check int) "packet count restarted" 1
    (Monitor.Ofd.observed_packets ofd);
  (* The next rotation is measured from the new start (2.0), not from
     elapsed packets: just below it stays in-window... *)
  ignore (observe ofd ~now:1.9999 ~key:(key 1 2) ~normalized:0.1);
  Alcotest.(check (float 1e-9)) "second window accumulates" 0.35
    (Monitor.Ofd.estimate ofd (key 1 2));
  (* ...and exactly at it rotates again. *)
  ignore (observe ofd ~now:2.0 ~key:(key 1 2) ~normalized:0.05);
  Alcotest.(check (float 1e-9)) "third window fresh" 0.05
    (Monitor.Ofd.estimate ofd (key 1 2))

let suspects_reset_on_rotation () =
  let ofd = fresh () in
  let k = key 7 7 in
  (* Cross the threshold in window one: exactly one [`Suspect]. *)
  let r1 = observe ofd ~now:0.2 ~key:k ~normalized:1.25 in
  Alcotest.(check bool) "flagged on crossing" true (r1 = `Suspect);
  let r2 = observe ofd ~now:0.3 ~key:k ~normalized:0.5 in
  Alcotest.(check bool) "not re-flagged in same window" true (r2 = `Ok);
  (* After rotation the suspect set resets: the same flow overusing
     again is reported again — once per window, not once ever. *)
  let r3 = observe ofd ~now:1.0 ~key:k ~normalized:1.25 in
  Alcotest.(check bool) "re-flagged in next window" true (r3 = `Suspect);
  Alcotest.(check bool) "once in next window too" true
    (observe ofd ~now:1.1 ~key:k ~normalized:0.5 = `Ok)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_never_underestimates;
    QCheck_alcotest.to_alcotest prop_heavy_flagged_once_per_window;
    QCheck_alcotest.to_alcotest prop_observation_pure;
    QCheck_alcotest.to_alcotest prop_hash4_is_hashtbl_hash;
    Alcotest.test_case "boundary: no rotation strictly inside window" `Quick
      no_rotation_strictly_inside;
    Alcotest.test_case "boundary: rotation at exactly now = window" `Quick
      rotation_at_exact_boundary;
    Alcotest.test_case "boundary: suspects reset on rotation" `Quick
      suspects_reset_on_rotation;
  ]
