(** [colibri-lint]: project-specific static analysis.

    Six rules, each with a pragma name usable in a
    [(* lint: allow <rule> ... *)] escape hatch (which suppresses the
    named rules — or [all] — on its own line and on the line
    immediately following):

    - [poly-hash] (R1): no polymorphic [Hashtbl.hash], and no
      polymorphic [Hashtbl.t] keyed by identifier types, outside
      [lib/types/ids.ml].
    - [hot-path-exn] (R2): no [failwith]/[invalid_arg]/[assert] in
      data-plane hot-path modules ([packet], [router], [gateway],
      [dataplane_shard], [monitor/*]).
    - [mac-compare] (R3): no [Bytes.equal]/[Bytes.compare] outside
      [lib/crypto]; MAC checks go through the constant-time
      [Cmac.verify].
    - [missing-mli] (R4): every [lib/**/*.ml] has a matching [.mli].
    - [nondet] (R5): no [Random.self_init]/[Sys.time]/
      [Unix.gettimeofday]/[Unix.time] under [lib/].
    - [negative-modulo] (R6): no [abs … mod …] indexing anywhere —
      [abs min_int] stays negative, so the index goes out of bounds;
      use [land max_int] to clear the sign bit.

    Comment and string-literal contents are masked before token
    matching, so documentation never triggers findings. *)

type finding = Finding.t = {
  file : string;
  line : int;
  rule : string;
  message : string;
  suppressed : bool;
}
(** Shared with [colibri-deepscan]/[colibri-domaincheck]; see
    {!Finding}. [suppressed] marks pragma/attribute-silenced findings
    kept only for the [--json] export. *)

val pp_finding : Format.formatter -> finding -> unit

module Finding : module type of Finding
(** The shared finding/report module, re-exported for sibling tools. *)

module Baseline : module type of Baseline
(** The findings ratchet ([tool/baseline.json]) plus the shared
    analyzer CLI plumbing ([--json] / [--baseline]), re-exported for
    [colibri-deepscan] and [colibri-domaincheck]. *)

val rule_names : string list
(** The six pragma names, in R1..R6 order. *)

val lint_source : path:string -> in_lib:bool -> string -> finding list
(** Lint one compilation unit given its content. [path] selects which
    rules apply; [in_lib] enables the lib-only determinism rule. *)

val lint_root : string -> finding list
(** Lint every [.ml]/[.mli] under a directory. A root whose basename
    is [lib] additionally gets the [missing-mli] and [nondet] rules. *)

val lint_roots : string list -> finding list

val run_cli : string list -> int
(** Lint each root, print findings, and return the exit code: 0 when
    clean, 1 on findings, 2 on usage errors. *)

val mask_comments_and_strings : string -> string
(** Exposed for the self-tests. *)
