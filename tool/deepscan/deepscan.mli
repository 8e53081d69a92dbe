(** [colibri-deepscan]: typedtree-level interprocedural analysis over
    the [.cmt] files dune produces (DESIGN.md §6).

    Five rules, each suppressible with a [[@colibri.allow "<rule>"]]
    attribute on the offending expression or a
    [[@@colibri.allow "<rule>"]] attribute on the enclosing binding
    (the payload may name several rules, space- or comma-separated):

    - [d1] — allocation in the hot closure: any function reachable
      from a [(* hot-path *)] root (transitively, across modules) that
      allocates: a denylisted stdlib call ([Bytes.create], [List.map],
      [Printf.sprintf], ...), a list cons, an array literal, or an
      anonymous closure. Allocation outside the hot closure is not
      flagged.
    - [d2] — exception escape: a reachable [raise]/[failwith]/
      [invalid_arg]/[assert], or a partial stdlib call ([List.hd],
      [Option.get], [Hashtbl.find], ...), in the same hot closure.
    - [d3] — polymorphic comparison at the wrong type: [compare] at
      any type (use the keyed [Int.compare]/[Ids.compare_asn]/...);
      [=], [<>], [min], [max], [List.mem], [List.assoc],
      [List.mem_assoc] and [Hashtbl.hash] when the subject type is
      composite (record, tuple, list, non-constant variant, or
      abstract). Applies everywhere, not only under hot roots.
    - [d4] — shard race: a function in a [*shard*] module — or handed
      to [Domain.spawn]/[Domain_pool.spawn] (by name or as an inline
      closure) — whose call closure reaches module-level mutable state
      (a top-level [ref], [Hashtbl.create], mutable record, ...)
      instead of the per-shard state record.
    - [d5] — constant-time discipline: an intra-function taint pass;
      a digest produced by [Cmac.digest]/[Hvf.seg_token]/... must not
      reach an [if] condition or [match] scrutinee except through the
      constant-time sanitizers ([Cmac.verify], [Hvf.equal_hvf_at], ...).
      Files under [crypto/] implement the primitives and are exempt.

    Hot roots are bindings that begin within three lines of a
    [(* hot-path *)] marker, plus a named list covering the monitor
    observe path ([Ofd.observe], [Token_bucket.admit], ...). *)

val rule_names : string list
(** The five rule slugs, ["d1"] .. ["d5"]. *)

(** {1 Shared typedtree plumbing}

    [colibri-domaincheck] runs its own rules (D6..D9) over the same
    [.cmt] corpus; the loading and name-canonicalization layer lives
    here so both analyzers agree on what a function is called. *)

module SS : Set.S with type elt = string

val after_dunder : string -> string
(** ["Colibri__Router"] -> ["Router"]: strip the wrapped-library
    mangling, keeping only the part after the last ["__"]. *)

val path_components : Path.t -> string list

val canon_components : wrappers:SS.t -> string list -> string list

val canon : wrappers:SS.t -> Path.t -> string
(** Canonical dotted name of a path: components demangled, the
    [Stdlib] prefix and wrapper-alias modules dropped. *)

val mem_qualified : SS.t -> string -> bool
(** Set membership that also matches on the last two dotted
    components, so [Crypto.Cmac.digest] matches a [Cmac.digest]
    entry. *)

val attrs_allowed : Parsetree.attributes -> SS.t
(** Rule names listed by [[@colibri.allow "..."]] attributes
    (space- or comma-separated). *)

val spine_of : Typedtree.expression -> Typedtree.expression list
(** The curried [Texp_function] spine of a binding RHS — the
    definition itself, as opposed to a run-time closure. *)

val contains_sub : string -> string -> bool

type loaded = {
  ld_units : (string * Typedtree.structure) list;
      (** raw [cmt_modname] (still mangled) and implementation *)
  ld_sources : string list;  (** [.ml] files under the scanned roots *)
  ld_wrappers : SS.t;  (** wrapper-alias module names, e.g. ["Colibri"] *)
}

val load : string list -> loaded
(** Walk [dirs] recursively, read every [.cmt] implementation, and
    compute the wrapper-alias set from the mangled unit names. *)

(** {1 Scanning} *)

type scan_result = {
  sr_findings : Lint.Finding.t list;
  sr_scanned : int;
  sr_d4_keys : (string * int * string) list;
      (** [(file, line, global)] of every D4 finding; domaincheck
          drops its D6/D7 findings at these keys so one access is
          never reported by both analyzers. *)
}

val scan_ex : string list -> scan_result

val scan : string list -> Lint.Finding.t list * int
(** [scan dirs] walks [dirs] recursively for [.cmt] files (and [.ml]
    sources, for the hot-path markers), analyzes every implementation
    module found, and returns the sorted findings plus the number of
    modules scanned. *)

val run_cli : string list -> int
(** [run_cli args] parses [[--json] [--baseline FILE] <dir>...],
    scans, prints a report (text or JSON; gated against the baseline
    ledger when given), and returns the exit code: 0 when clean, 1 on
    findings, 2 on usage errors. *)
