(* Self-tests for the colibri-lint analyzer: each fixture root under
   lint_fixtures/ must trigger exactly its intended rule, the clean
   root must trigger nothing, and the masking / pragma machinery is
   exercised directly on in-memory sources. *)

let fixture rule = Printf.sprintf "lint_fixtures/%s/lib" rule

let rules_of findings =
  List.sort_uniq compare (List.map (fun f -> f.Lint.rule) findings)

let check_fixture ~root ~expect () =
  let findings = Lint.lint_root (fixture root) in
  Alcotest.(check bool)
    (root ^ " triggers at least one finding")
    true
    (findings <> []);
  Alcotest.(check (list string))
    (root ^ " triggers only " ^ expect)
    [ expect ] (rules_of findings)

let test_r1 () = check_fixture ~root:"r1" ~expect:"poly-hash" ()
let test_r2 () = check_fixture ~root:"r2" ~expect:"hot-path-exn" ()
let test_r3 () = check_fixture ~root:"r3" ~expect:"mac-compare" ()
let test_r4 () = check_fixture ~root:"r4" ~expect:"missing-mli" ()
let test_r5 () = check_fixture ~root:"r5" ~expect:"nondet" ()
let test_r6 () = check_fixture ~root:"r6" ~expect:"negative-modulo" ()

(* The fixed idiom must not be flagged: the sign bit is cleared with
   [land max_int], no [abs] involved. *)
let test_r6_fixed_idiom () =
  let src = "let shard_of id n = id * 0x9e3779b1 land max_int mod n\n" in
  Alcotest.(check int) "land max_int idiom is clean" 0
    (List.length (Lint.lint_source ~path:"lib/x.ml" ~in_lib:false src))

let test_clean () =
  let findings = Lint.lint_root (fixture "clean") in
  List.iter (Fmt.epr "unexpected: %a@." Lint.pp_finding) findings;
  Alcotest.(check int) "clean fixture has zero findings" 0 (List.length findings)

(* The repo itself must stay lint-clean: this is the same invariant the
   @lint alias enforces at build time, kept here so [dune runtest]
   alone also guards it. Tests run from _build/default/test. *)
let test_repo_clean () =
  let roots =
    List.filter Sys.file_exists [ "../lib"; "../bin"; "../bench" ]
  in
  let findings = Lint.lint_roots roots in
  List.iter (Fmt.epr "repo finding: %a@." Lint.pp_finding) findings;
  Alcotest.(check int) "repo is lint-clean" 0 (List.length findings)

let test_masking () =
  let masked =
    Lint.mask_comments_and_strings
      "let x = 1 (* Hashtbl.hash (* nested *) failwith *) + \
       String.length \"Bytes.equal\""
  in
  let contains s sub = Astring.String.is_infix ~affix:sub s in
  Alcotest.(check bool) "comment tokens masked" false
    (contains masked "Hashtbl.hash");
  Alcotest.(check bool) "nested comment masked" false (contains masked "nested");
  Alcotest.(check bool) "string tokens masked" false
    (contains masked "Bytes.equal");
  Alcotest.(check bool) "code survives" true (contains masked "String.length")

let test_pragma_same_line () =
  let src = "let f k = Hashtbl.hash k (* lint: allow poly-hash *)\n" in
  Alcotest.(check int) "same-line pragma suppresses" 0
    (List.length (Lint.lint_source ~path:"lib/x.ml" ~in_lib:false src))

let test_pragma_prev_line () =
  let src = "(* lint: allow poly-hash *)\nlet f k = Hashtbl.hash k\n" in
  Alcotest.(check int) "previous-line pragma suppresses" 0
    (List.length (Lint.lint_source ~path:"lib/x.ml" ~in_lib:false src))

let test_pragma_wrong_rule () =
  let src = "(* lint: allow nondet *)\nlet f k = Hashtbl.hash k\n" in
  Alcotest.(check int) "pragma for another rule does not suppress" 1
    (List.length (Lint.lint_source ~path:"lib/x.ml" ~in_lib:false src))

let test_ids_exempt () =
  let src = "let f k = Hashtbl.hash k\n" in
  Alcotest.(check int) "lib/types/ids.ml is exempt from poly-hash" 0
    (List.length (Lint.lint_source ~path:"lib/types/ids.ml" ~in_lib:true src))

let suite =
  [
    Alcotest.test_case "fixture r1: poly-hash" `Quick test_r1;
    Alcotest.test_case "fixture r2: hot-path-exn" `Quick test_r2;
    Alcotest.test_case "fixture r3: mac-compare" `Quick test_r3;
    Alcotest.test_case "fixture r4: missing-mli" `Quick test_r4;
    Alcotest.test_case "fixture r5: nondet" `Quick test_r5;
    Alcotest.test_case "fixture r6: negative-modulo" `Quick test_r6;
    Alcotest.test_case "negative-modulo fixed idiom" `Quick test_r6_fixed_idiom;
    Alcotest.test_case "fixture clean: no findings" `Quick test_clean;
    Alcotest.test_case "repo sources are lint-clean" `Quick test_repo_clean;
    Alcotest.test_case "comment/string masking" `Quick test_masking;
    Alcotest.test_case "pragma on same line" `Quick test_pragma_same_line;
    Alcotest.test_case "pragma on previous line" `Quick test_pragma_prev_line;
    Alcotest.test_case "pragma rule must match" `Quick test_pragma_wrong_rule;
    Alcotest.test_case "ids.ml exemption" `Quick test_ids_exempt;
  ]
