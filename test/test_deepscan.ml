(** Deepscan fixture suite.

    [deepscan_fixtures/] holds one deliberately-violating module per
    deep rule, each paired with a [[@colibri.allow]]-suppressed twin.
    The suite proves three things: every rule D1..D5 fires at its known
    location, every suppression silences exactly its twin, and D1
    follows the hot closure across modules (a hot root in [D1_router]
    whose allocation lives in [D1_alloc_helper]) while an allocation
    outside that closure stays unflagged. Tests run from
    [_build/default/test], where dune has built the fixture library's
    [.cmt] files next to its copied sources. *)

let result = lazy (Deepscan.scan [ "deepscan_fixtures" ])
let findings () = fst (Lazy.force result)
let base (f : Lint.finding) = Filename.basename f.file

let find_at ~rule ~file ~line =
  List.filter
    (fun (f : Lint.finding) -> f.rule = rule && base f = file && f.line = line)
    (findings ())

let check_fires ?contains ~rule ~file ~line () =
  let hits = find_at ~rule ~file ~line in
  Alcotest.(check bool)
    (Printf.sprintf "[%s] fires at %s:%d" rule file line)
    true (hits <> []);
  match contains with
  | None -> ()
  | Some affix ->
      Alcotest.(check bool)
        (Printf.sprintf "finding at %s:%d mentions %S" file line affix)
        true
        (List.exists
           (fun (f : Lint.finding) -> Astring.String.is_infix ~affix f.message)
           hits)

let check_silent ~rule ~file ~line () =
  Alcotest.(check int)
    (Printf.sprintf "[%s] stays silent at %s:%d" rule file line)
    0
    (List.length (find_at ~rule ~file ~line))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_d1_cross_module () =
  (* The allocation is reported in the helper's file, with the chain
     that reached it from the marked hot root in the other module. *)
  check_fires ~rule:"d1" ~file:"d1_alloc_helper.ml" ~line:6
    ~contains:"via D1_router.forward -> D1_alloc_helper.alloc_payload" ()

let test_d1_suppressed () = check_silent ~rule:"d1" ~file:"d1_alloc_helper.ml" ~line:8 ()

let test_d1_cold_clean () =
  (* [D1_router.cold_setup] allocates but is neither marked nor
     reached from a marked definition. *)
  let line = 12 in
  Alcotest.(check bool) "fixture line allocates" true
    (Astring.String.is_infix ~affix:"Bytes.create"
       (List.nth
          (String.split_on_char '\n' (read_file "deepscan_fixtures/d1_router.ml"))
          (line - 1)));
  check_silent ~rule:"d1" ~file:"d1_router.ml" ~line ()

let test_d2_direct () = check_fires ~rule:"d2" ~file:"d2_exn.ml" ~line:5 ~contains:"List.hd" ()

let test_d2_via_helper () =
  check_fires ~rule:"d2" ~file:"d2_exn.ml" ~line:9
    ~contains:"via D2_exn.via_helper -> D2_exn.pick" ()

let test_d2_suppressed () = check_silent ~rule:"d2" ~file:"d2_exn.ml" ~line:15 ()

let test_d3_equal () = check_fires ~rule:"d3" ~file:"d3_poly.ml" ~line:6 ~contains:"[=]" ()
let test_d3_compare () = check_fires ~rule:"d3" ~file:"d3_poly.ml" ~line:8 ~contains:"[compare]" ()

let test_d3_hash_tuple () =
  (* The router's old dispatch form: [Hashtbl.hash (len, b)] hashes a
     freshly-built tuple polymorphically. The live dispatch path uses
     [Dataplane_shard.dispatch_mix]; this pins that the old form would
     still be caught if it came back. *)
  check_fires ~rule:"d3" ~file:"d3_poly.ml" ~line:19 ~contains:"[Hashtbl.hash]" ()

let test_d3_immediate_clean () = check_silent ~rule:"d3" ~file:"d3_poly.ml" ~line:10 ()
let test_d3_suppressed () = check_silent ~rule:"d3" ~file:"d3_poly.ml" ~line:12 ()

let test_d4_global () =
  check_fires ~rule:"d4" ~file:"d4_shard_state.ml" ~line:9 ~contains:"D4_shard_state.hits" ()

let test_d4_suppressed () = check_silent ~rule:"d4" ~file:"d4_shard_state.ml" ~line:12 ()

let test_d5_branch () =
  check_fires ~rule:"d5" ~file:"d5_taint.ml" ~line:6 ~contains:"constant time" ()

let test_d5_sanitized_and_suppressed () =
  List.iter (fun line -> check_silent ~rule:"d5" ~file:"d5_taint.ml" ~line ()) [ 9; 13 ]

let test_exact_counts () =
  (* Each fixture contains exactly one firing violation per listed
     rule occurrence — any extra finding is a false positive. *)
  let per rule =
    List.length (List.filter (fun (f : Lint.finding) -> f.rule = rule) (findings ()))
  in
  List.iter
    (fun (rule, n) -> Alcotest.(check int) ("findings for " ^ rule) n (per rule))
    [ ("d1", 1); ("d2", 2); ("d3", 3); ("d4", 1); ("d5", 1) ];
  Alcotest.(check int) "total findings" 8 (List.length (findings ()));
  Alcotest.(check bool) "all fixture modules scanned" true (snd (Lazy.force result) >= 6)

let suite =
  [
    Alcotest.test_case "d1 fires across modules" `Quick test_d1_cross_module;
    Alcotest.test_case "d1 suppression" `Quick test_d1_suppressed;
    Alcotest.test_case "d1 ignores allocation outside the hot closure" `Quick
      test_d1_cold_clean;
    Alcotest.test_case "d2 fires on a direct partial call" `Quick test_d2_direct;
    Alcotest.test_case "d2 fires through a local helper" `Quick test_d2_via_helper;
    Alcotest.test_case "d2 suppression" `Quick test_d2_suppressed;
    Alcotest.test_case "d3 fires on [=] at a record" `Quick test_d3_equal;
    Alcotest.test_case "d3 fires on [compare]" `Quick test_d3_compare;
    Alcotest.test_case "d3 fires on the old tuple dispatch hash" `Quick test_d3_hash_tuple;
    Alcotest.test_case "d3 ignores immediate types" `Quick test_d3_immediate_clean;
    Alcotest.test_case "d3 suppression" `Quick test_d3_suppressed;
    Alcotest.test_case "d4 fires on a shared shard global" `Quick test_d4_global;
    Alcotest.test_case "d4 suppression" `Quick test_d4_suppressed;
    Alcotest.test_case "d5 fires on branching on a digest" `Quick test_d5_branch;
    Alcotest.test_case "d5 sanitizer and suppression stay clean" `Quick
      test_d5_sanitized_and_suppressed;
    Alcotest.test_case "exact finding counts" `Quick test_exact_counts;
  ]
