(** [colibri-lint]: project-specific static analysis.

    A line/token-level analyzer enforcing the invariants the paper's
    claims rest on but the type checker cannot see:

    - {b poly-hash} (R1): no polymorphic [Hashtbl.hash], and no
      polymorphic [Hashtbl.t] keyed by identifier types ([Ids.asn],
      [Ids.res_key]), outside [lib/types/ids.ml]. Polymorphic hashing
      of nested records is both slower than the keyed functors in
      {!Ids} and non-portable across OCaml versions; the admission
      fast path (Fig. 3) must use [Hashtbl.Make] instances.
    - {b hot-path-exn} (R2): no [failwith]/[invalid_arg]/[assert] in
      data-plane hot-path modules ([packet], [router], [gateway],
      [dataplane_shard], [monitor/*]) — per-packet errors must be
      variants; an exception on the forwarding path is a
      denial-of-service primitive.
    - {b mac-compare} (R3): no [Bytes.equal]/[Bytes.compare] outside
      [lib/crypto] — MAC/tag comparison must go through the
      constant-time [Cmac.verify] (§4.5); early-exit comparison leaks
      tag prefixes through timing.
    - {b missing-mli} (R4): every [lib/**/*.ml] has a matching [.mli],
      so hot-path representations stay abstract.
    - {b nondet} (R5): no [Random.self_init]/[Sys.time]/
      [Unix.gettimeofday]/[Unix.time] in [lib/] — simulations must be
      deterministic; time comes from an injected {!Timebase.clock} and
      randomness from an explicit [Random.State.t].
    - {b negative-modulo} (R6): no [abs … mod …] indexing. [abs min_int]
      is [min_int] (two's complement has no positive counterpart), so
      the subsequent [mod] is negative and the index lands out of
      bounds. Clear the sign bit with [land max_int] instead.

    Escape hatch: a comment [(* lint: allow <rule> ... *)] suppresses
    the named rules (or [all]) on its own line and on the line
    immediately following. Comment and string-literal contents are
    masked before token matching, so prose mentioning [Hashtbl.hash]
    is not flagged. *)

type finding = Finding.t = {
  file : string;
  line : int;
  rule : string;
  message : string;
  suppressed : bool;
}
(* Re-exported from {!Finding} (shared with colibri-deepscan) so that
   [f.Lint.rule] record access keeps working for existing callers. *)

let pp_finding = Finding.pp

(* Surface the shared modules to other tools (deepscan, domaincheck)
   that link against this library; [Finding]/[Baseline] alone would
   stay library-private. *)
module Finding = Finding
module Baseline = Baseline

(* ------------------------------ paths ------------------------------ *)

let contains (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let ends_with ~(suffix : string) (s : string) : bool =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

(* Normalized relative path with '/' separators. *)
let norm (path : string) : string =
  String.map (fun c -> if c = '\\' then '/' else c) path

let is_ids_module path =
  let p = norm path in
  ends_with ~suffix:"types/ids.ml" p || ends_with ~suffix:"types/ids.mli" p

let hot_path_basenames = [ "packet.ml"; "router.ml"; "gateway.ml"; "dataplane_shard.ml" ]

let is_hot_path path =
  List.mem (Filename.basename path) hot_path_basenames
  || contains (norm path) "monitor/"

let in_crypto path = contains (norm path) "crypto/"

(* ------------------------------ rules ------------------------------ *)

type pattern = {
  rule : string;  (** pragma name *)
  tokens : string list;  (** any occurrence on a line flags it *)
  co_words : string list;
      (** when non-empty, the line must also contain one of these words *)
  applies : path:string -> in_lib:bool -> bool;
  message : string;
}

let patterns : pattern list =
  [
    {
      rule = "poly-hash";
      tokens = [ "Hashtbl.hash" ];
      co_words = [];
      applies = (fun ~path ~in_lib:_ -> not (is_ids_module path));
      message =
        "polymorphic Hashtbl.hash on the fast path; use the keyed hashes of \
         Ids (lib/types/ids.ml)";
    };
    {
      rule = "poly-hash";
      tokens = [ "Hashtbl.t" ];
      co_words = [ "asn"; "res_key"; "Asn"; "Res_key" ];
      applies = (fun ~path ~in_lib:_ -> not (is_ids_module path));
      message =
        "polymorphic hash table keyed by identifier types; use the \
         Hashtbl.Make instances of Ids (lib/types/ids.ml)";
    };
    {
      rule = "hot-path-exn";
      tokens = [ "failwith"; "invalid_arg"; "assert" ];
      co_words = [];
      applies = (fun ~path ~in_lib:_ -> is_hot_path path);
      message =
        "exception in a data-plane hot-path module; per-packet errors must be \
         variants";
    };
    {
      rule = "mac-compare";
      tokens = [ "Bytes.equal"; "Bytes.compare" ];
      co_words = [];
      applies = (fun ~path ~in_lib:_ -> not (in_crypto path));
      message =
        "variable-time byte comparison; MAC/tag checks must use the \
         constant-time Cmac.verify (lib/crypto)";
    };
    {
      rule = "nondet";
      tokens = [ "Random.self_init"; "Sys.time"; "Unix.gettimeofday"; "Unix.time" ];
      co_words = [];
      applies = (fun ~path:_ ~in_lib -> in_lib);
      message =
        "ambient time/randomness breaks simulation determinism; inject a \
         Timebase.clock or Random.State.t";
    };
    {
      rule = "negative-modulo";
      tokens = [ "abs" ];
      co_words = [ "mod" ];
      applies = (fun ~path:_ ~in_lib:_ -> true);
      message =
        "abs before mod overflows on min_int (abs min_int = min_int), making \
         the index negative; clear the sign bit with land max_int instead";
    };
  ]

let rule_names =
  [ "poly-hash"; "hot-path-exn"; "mac-compare"; "missing-mli"; "nondet";
    "negative-modulo" ]

(* --------------------------- tokenization --------------------------- *)

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Does [tok] occur in [line] delimited by non-identifier characters?
   A leading '.' is a valid boundary so that [Stdlib.Hashtbl.hash] is
   still caught. *)
let token_occurs (line : string) (tok : string) : bool =
  let n = String.length line and m = String.length tok in
  let rec go i =
    if i + m > n then false
    else if
      String.sub line i m = tok
      && (i = 0 || not (is_ident_char line.[i - 1]))
      && (i + m = n || not (is_ident_char line.[i + m]))
    then true
    else go (i + 1)
  in
  m > 0 && go 0

(* Mask comment and string-literal contents with spaces (newlines kept)
   so that documentation never triggers token matches. Handles nested
   comments and skips character literals (including escapes) so that
   ['"'] does not open a phantom string. *)
let mask_comments_and_strings (src : string) : string =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let rec code i =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      comment (i + 2) 1
    end
    else if src.[i] = '"' then begin
      blank i;
      string (i + 1)
    end
    else if
      (* char literal: '<c>' or '\<escape...>' — not a type variable *)
      src.[i] = '\''
      && ((i + 2 < n && src.[i + 2] = '\'' && src.[i + 1] <> '\\')
         || (i + 1 < n && src.[i + 1] = '\\'))
    then begin
      let j = ref (i + 1) in
      while !j < n && src.[!j] <> '\'' do incr j done;
      for k = i to min (n - 1) !j do blank k done;
      code (!j + 1)
    end
    else code (i + 1)
  and comment i depth =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      comment (i + 2) (depth + 1)
    end
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then begin
      blank i;
      blank (i + 1);
      if depth = 1 then code (i + 2) else comment (i + 2) (depth - 1)
    end
    else begin
      blank i;
      comment (i + 1) depth
    end
  and string i =
    if i >= n then ()
    else if src.[i] = '\\' && i + 1 < n then begin
      blank i;
      blank (i + 1);
      string (i + 2)
    end
    else if src.[i] = '"' then begin
      blank i;
      code (i + 1)
    end
    else begin
      blank i;
      string (i + 1)
    end
  in
  code 0;
  Bytes.to_string out

(* ------------------------------ pragmas ------------------------------ *)

(* Rules allowed on [line] by a [(* lint: allow r1 r2 *)] pragma on the
   same line or the line immediately above. *)
let pragma_allows (raw_lines : string array) (line : int) (rule : string) : bool =
  let allows_on idx =
    if idx < 1 || idx > Array.length raw_lines then false
    else
      let l = raw_lines.(idx - 1) in
      match String.index_opt l 'l' with
      | None -> false
      | Some _ ->
          contains l "lint:"
          && contains l "allow"
          && (token_occurs l rule || token_occurs l "all")
  in
  allows_on line || allows_on (line - 1)

(* ----------------------------- scanning ----------------------------- *)

let split_lines (s : string) : string array =
  Array.of_list (String.split_on_char '\n' s)

(** Lint one compilation unit given its [content]; [path] determines
    which rules apply ([in_lib] marks files under a [lib] root, where
    the determinism rule holds). *)
let lint_source ~(path : string) ~(in_lib : bool) (content : string) : finding list =
  let raw_lines = split_lines content in
  let masked_lines = split_lines (mask_comments_and_strings content) in
  let findings = ref [] in
  Array.iteri
    (fun i masked ->
      let line = i + 1 in
      List.iter
        (fun (p : pattern) ->
          if
            p.applies ~path ~in_lib
            && List.exists (token_occurs masked) p.tokens
            && (p.co_words = [] || List.exists (token_occurs masked) p.co_words)
            && not (pragma_allows raw_lines line p.rule)
          then
            findings :=
              Finding.v ~file:path ~line ~rule:p.rule ~message:p.message
              :: !findings)
        patterns)
    masked_lines;
  List.rev !findings

let read_file (path : string) : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Collect the [.ml]/[.mli] files under [dir], skipping hidden and
    build directories, in deterministic order. *)
let rec source_files (dir : string) : string list =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if entry = "" || entry.[0] = '.' || entry.[0] = '_' then []
         else if Sys.is_directory path then source_files path
         else if
           Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
         then [ path ]
         else [])

(** Lint everything under [root]. A root whose basename is [lib] gets
    the lib-only rules: [nondet] (R5) and [missing-mli] (R4). *)
let lint_root (root : string) : finding list =
  let in_lib = Filename.basename root = "lib" in
  source_files root
  |> List.concat_map (fun path ->
         let token_findings = lint_source ~path ~in_lib (read_file path) in
         let mli_findings =
           if
             in_lib
             && Filename.check_suffix path ".ml"
             && not (Sys.file_exists (path ^ "i"))
           then
             [
               Finding.v ~file:path ~line:1 ~rule:"missing-mli"
                 ~message:
                   "every module under lib/ needs an interface file so \
                    hot-path representations stay abstract";
             ]
           else []
         in
         mli_findings @ token_findings)

let lint_roots (roots : string list) : finding list = List.concat_map lint_root roots

(** CLI driver: lint each root, print findings, return the exit code
    (0 when clean, 1 on findings, 2 on usage errors). *)
let run_cli (roots : string list) : int =
  if roots = [] then begin
    prerr_endline "usage: colibri_lint <dir>...";
    2
  end
  else
    match List.filter (fun r -> not (Sys.file_exists r)) roots with
    | missing :: _ ->
        Printf.eprintf "colibri_lint: no such directory: %s\n" missing;
        2
    | [] ->
        let findings = lint_roots roots in
        let files = List.fold_left (fun acc r -> acc + List.length (source_files r)) 0 roots in
        Finding.report ~tool:"colibri-lint" ~scanned:files ~unit_name:"file" findings
