(** [colibri-deepscan]: typedtree-level interprocedural analysis.

    Where [colibri-lint] matches tokens line by line, this tool reads
    the [.cmt] files dune already produces, rebuilds a per-module call
    graph, computes the transitive closure of the [(* hot-path *)]
    roots, and runs five type-aware rules over it (D1..D5, see
    {!Deepscan} and DESIGN.md §6). No extra dependencies: only
    [compiler-libs.common], which ships with the compiler. *)

open Typedtree
module SS = Set.Make (String)
module Finding = Lint.Finding

let rule_names = [ "d1"; "d2"; "d3"; "d4"; "d5" ]

(* --------------------------- rule tables --------------------------- *)

(* D1: externals whose result is a freshly allocated block. Tuples,
   records and constructor applications are deliberately NOT listed:
   flagging every [Ok v] would bury the signal (variant results are
   the sanctioned error channel, DESIGN.md §2). *)
let alloc_calls =
  SS.of_list
    [
      "Bytes.create"; "Bytes.sub"; "Bytes.copy"; "Bytes.extend"; "Bytes.cat";
      "Bytes.of_string"; "Bytes.to_string"; "Bytes.make"; "Bytes.init";
      "String.concat"; "String.sub"; "String.make"; "String.init";
      "Buffer.create"; "Array.make"; "Array.init"; "Array.copy";
      "Array.append"; "Array.sub"; "Array.of_list"; "Array.to_list";
      "List.map"; "List.rev"; "List.append"; "List.concat"; "List.init";
      "List.filter"; "List.filter_map"; "List.sort"; "List.merge";
      "Hashtbl.create"; "Printf.sprintf"; "Format.asprintf"; "Fmt.str";
    ]

(* D2: exception constructors/raisers plus the partial stdlib
   functions that raise on the empty/missing case. *)
let raise_calls = SS.of_list [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

let partial_calls =
  SS.of_list
    [ "List.hd"; "List.tl"; "List.nth"; "List.find"; "List.assoc"; "Option.get"; "Hashtbl.find" ]

(* D3: [compare] is flagged at every type (use the keyed comparison —
   [Int.compare], [Ids.compare_asn], ...); the rest only when the
   subject type is non-immediate. *)
let compare_at_any_type = SS.of_list [ "compare" ]

let compare_at_composite =
  SS.of_list [ "="; "<>"; "min"; "max"; "List.mem"; "List.assoc"; "List.mem_assoc"; "Hashtbl.hash" ]

(* D4: constructors whose result is module-level mutable state when
   bound at the structure top level. *)
let mutable_ctors =
  SS.of_list
    [
      "ref"; "Hashtbl.create"; "Array.make"; "Array.init"; "Bytes.create";
      "Bytes.make"; "Buffer.create"; "Queue.create"; "Atomic.make";
    ]

(* D5: functions producing secret-derived digests, and the sanctioned
   constant-time sanitizers that may inspect them. *)
let taint_sources =
  SS.of_list
    [
      "Cmac.digest"; "Cmac.digest_trunc"; "Cmac.digest_into"; "Cmac.digest_trunc_into";
      "Hvf.seg_token"; "Hvf.eer_hvf"; "Hvf.hop_auth"; "Hvf.sigma_of_bytes";
    ]

let taint_sanitizers =
  SS.of_list
    [ "Cmac.verify"; "Cmac.verify_at"; "Hvf.equal_hvf"; "Hvf.equal_hvf_at"; "Hvf.seg_check"; "Hvf.eer_check" ]

(* Membership that tolerates a leading qualifier: a scan that never
   loaded the crypto cmts does not know [Crypto] is a wrapper alias, so
   [Crypto.Cmac.digest] must still match the source [Cmac.digest].
   Two-component table entries therefore also match on the last two
   path components. *)
let mem_qualified (set : SS.t) (name : string) : bool =
  SS.mem name set
  ||
  match List.rev (String.split_on_char '.' name) with
  | f :: m :: _ :: _ -> SS.mem (m ^ "." ^ f) set
  | _ -> false

(* Hot roots that carry no [(* hot-path *)] marker of their own but
   sit on the per-packet observe path (DESIGN.md §7). *)
let named_hot_roots =
  SS.of_list
    [
      "Router.process_bytes"; "Router.process_view"; "Gateway.send_bytes";
      "Ofd.observe"; "Token_bucket.admit"; "Duplicate_filter.check_and_insert";
      "Blocklist.is_blocked";
    ]

(* D4 (spawn extension): calls whose final argument runs on another
   domain. A function handed to one of these is a shard root exactly
   like a [*shard*]-module worker: its call closure must not touch
   module-level mutable state. [Domain_pool.spawn] is listed because
   the pool forwards its argument to [Domain.spawn] through a closure
   the analysis cannot see through. *)
let spawn_calls = SS.of_list [ "Domain.spawn"; "Domain_pool.spawn" ]

(* ------------------------- canonical names ------------------------- *)

(* "Colibri__Router" -> "Router": module aliasing mangles wrapped
   library members; keep only the part after the last "__". *)
let after_dunder (s : string) : string =
  let n = String.length s in
  let rec go i best =
    if i + 1 >= n then best
    else if s.[i] = '_' && s.[i + 1] = '_' then go (i + 1) (i + 2)
    else go (i + 1) best
  in
  let cut = go 0 0 in
  if cut = 0 then s else String.sub s cut (n - cut)

let path_components (p : Path.t) : string list =
  let rec go acc = function
    | Path.Pident id -> Ident.name id :: acc
    | Path.Pdot (p, s) -> go (s :: acc) p
    | Path.Papply (p, _) -> go acc p
    | _ -> acc (* Pextra_ty: type-level decoration, no value component *)
  in
  go [] p

(* Canonical dotted name: mangled components demangled, the [Stdlib]
   prefix and wrapper-alias modules (e.g. [Colibri]) dropped, so the
   same function has the same name whether referenced from inside or
   outside its library. *)
let canon_components ~(wrappers : SS.t) (comps : string list) : string list =
  let comps = List.map after_dunder comps in
  let comps = match comps with "Stdlib" :: (_ :: _ as rest) -> rest | c -> c in
  match comps with w :: (_ :: _ as rest) when SS.mem w wrappers -> rest | c -> c

let canon ~wrappers (p : Path.t) : string =
  String.concat "." (canon_components ~wrappers (path_components p))

(* ------------------------- shape classifier ------------------------ *)

(* Immediacy of a type, for D3: is a polymorphic [=]/[hash] at this
   type a word comparison (fine) or a structural walk (flagged)? *)
type shape =
  | Immediate (* unboxed word: int, bool, constant-only variants *)
  | Scalar (* boxed but atomic: string, float, int64... *)
  | Composite (* structural: records, tuples, lists, parameterized *)

type ctx = {
  wrappers : SS.t;
  decls : (string, Types.type_declaration) Hashtbl.t; (* "Ids.asn" -> decl *)
  mutables : (string, string) Hashtbl.t; (* canonical global -> file:line *)
}

let rec classify (ctx : ctx) ~(self_mod : string) (depth : int) (ty : Types.type_expr) : shape =
  if depth > 8 then Composite
  else
    match Types.get_desc ty with
    | Tvar _ | Tunivar _ -> Composite
    | Tarrow _ | Ttuple _ -> Composite
    | Tpoly (t, _) -> classify ctx ~self_mod (depth + 1) t
    | Tconstr (p, _, _) -> (
        let name = String.concat "." (canon_components ~wrappers:ctx.wrappers (path_components p)) in
        match name with
        | "int" | "bool" | "char" | "unit" -> Immediate
        | "string" | "float" | "bytes" | "int32" | "int64" | "nativeint" -> Scalar
        | "list" | "array" | "option" | "result" | "ref" | "Hashtbl.t" -> Composite
        | _ -> (
            (* Paths inside the defining module lack its prefix
               ([asn] in ids.ml, [Epoch.t] in drkey.ml): retry the
               lookup qualified by the module under analysis. *)
            let decl =
              match Hashtbl.find_opt ctx.decls name with
              | Some _ as d -> d
              | None -> Hashtbl.find_opt ctx.decls (self_mod ^ "." ^ name)
            in
            match decl with
            | None -> Composite
            | Some d -> (
                match d.Types.type_kind with
                | Type_record _ | Type_open -> Composite
                | Type_variant (ctors, _) ->
                    if
                      List.for_all
                        (fun c ->
                          match c.Types.cd_args with Cstr_tuple [] -> true | _ -> false)
                        ctors
                    then Immediate
                    else Composite
                | Type_abstract -> (
                    match d.Types.type_manifest with
                    | Some m -> classify ctx ~self_mod (depth + 1) m
                    | None -> Composite))))
    | _ -> Composite

let shape_word = function
  | Immediate -> "word-sized"
  | Scalar -> "scalar"
  | Composite -> "structural"

(* The subject type of a comparison-family ident is the first
   parameter of its instantiated arrow type. *)
let first_param_type (ty : Types.type_expr) : Types.type_expr option =
  match Types.get_desc ty with Tarrow (_, a, _, _) -> Some a | _ -> None

(* --------------------------- suppression --------------------------- *)

(* [[@colibri.allow "d1 d3"]] on an expression or value binding
   suppresses the named rules in that subtree. *)
let attrs_allowed (attrs : Parsetree.attributes) : SS.t =
  List.fold_left
    (fun acc (a : Parsetree.attribute) ->
      if a.attr_name.txt <> "colibri.allow" then acc
      else
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ->
            String.split_on_char ' ' s
            |> List.concat_map (String.split_on_char ',')
            |> List.filter (fun r -> r <> "")
            |> List.fold_left (fun acc r -> SS.add r acc) acc
        | _ -> acc)
    SS.empty attrs

(* ------------------------------ graph ------------------------------ *)

type node = {
  n_name : string; (* canonical, e.g. "Dataplane_shard.Parallel_router.submit" *)
  n_file : string; (* pos_fname as recorded by the compiler *)
  n_line : int;
  n_vb : value_binding;
  n_allowed : SS.t; (* from [@@colibri.allow] on the binding *)
  n_is_fun : bool; (* a non-function binding runs at module init, not
                      per call: the closure must treat it as a leaf
                      (preallocated buffers are the zero-copy idiom) *)
  mutable n_hot : bool;
  mutable n_calls : SS.t; (* canonical callee names *)
  mutable n_d1 : (int * string) list; (* line, what *)
  mutable n_d2 : (int * string) list;
  mutable n_mut_refs : (int * string) list; (* line, global name *)
  mutable n_spawn_targets : SS.t; (* named functions handed to Domain.spawn *)
  mutable n_spawn_inline : bool; (* binding spawns an inline closure *)
}

type modul = {
  m_name : string; (* canonical module name, e.g. "Router" *)
  m_nodes : node list;
  m_idents : (string, string) Hashtbl.t; (* Ident.unique_name -> node name *)
}

(* ----------------------- cmt / source discovery -------------------- *)

let rec walk_files (acc : string list) (dir : string) : string list =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.fold_left
        (fun acc e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then walk_files acc p else p :: acc)
        acc entries

let marker = "(* hot-path *)"

let contains_sub (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let read_lines (path : string) : string list =
  match open_in_bin path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc = match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> close_in ic; List.rev acc
      in
      go []

(* basename -> lines (1-based) holding a hot-path marker, merged over
   every same-named source under the scanned roots. *)
let marker_index (sources : string list) : (string, int list) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun path ->
      let lines = read_lines path in
      let hits =
        List.fold_left
          (fun (i, acc) l -> (i + 1, if contains_sub l marker then i :: acc else acc))
          (1, []) lines
        |> snd |> List.rev
      in
      if hits <> [] then
        let base = Filename.basename path in
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl base) in
        Hashtbl.replace tbl base (prev @ hits))
    sources;
  tbl

(* --------------------------- module pass --------------------------- *)

(* Chase the curried-function spine of a binding RHS: those
   [Texp_function] nodes are the definition itself, not a closure
   allocated at run time (local tail-called functions are compiled
   without a closure by Simplif, and top-level ones are static). *)
let spine_of (e : expression) : expression list =
  let rec go acc (e : expression) =
    match e.exp_desc with
    | Texp_function { cases = [ c ]; _ } -> go (e :: acc) c.c_rhs
    | Texp_function _ -> e :: acc
    | _ -> acc
  in
  go [] e

(* Collect the top-level value bindings of a structure, descending
   into nested (and constrained) modules so shard workers like
   [Dataplane_shard.Parallel_router.worker_loop] become nodes. *)
let collect_nodes (ctx : ctx) ~(m_name : string) (str : structure) :
    node list * (string, string) Hashtbl.t =
  let idents = Hashtbl.create 32 in
  let nodes = ref [] in
  let register_types prefix (tds : type_declaration list) =
    List.iter
      (fun (td : type_declaration) ->
        Hashtbl.replace ctx.decls (prefix ^ "." ^ td.typ_name.txt) td.typ_type)
      tds
  in
  let is_mutable_rhs (e : expression) : bool =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
        SS.mem (canon ~wrappers:ctx.wrappers p) mutable_ctors
    | Texp_record { fields; _ } ->
        Array.exists (fun (ld, _) -> ld.Types.lbl_mut = Asttypes.Mutable) fields
    | _ -> false
  in
  let rec items prefix (its : structure_item list) =
    List.iter
      (fun (it : structure_item) ->
        match it.str_desc with
        | Tstr_type (_, tds) -> register_types prefix tds
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : value_binding) ->
                (* A constrained binding [let x : t = e] reaches the
                   typedtree as [Tpat_alias] over the constraint, not
                   [Tpat_var] — both bind exactly one name. *)
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, name) | Tpat_alias (_, id, name) ->
                    let n_name = prefix ^ "." ^ name.txt in
                    let loc = vb.vb_loc.loc_start in
                    let allowed = attrs_allowed vb.vb_attributes in
                    Hashtbl.replace idents (Ident.unique_name id) n_name;
                    if is_mutable_rhs vb.vb_expr && not (SS.mem "d4" allowed) then
                      Hashtbl.replace ctx.mutables n_name
                        (Printf.sprintf "%s:%d" loc.pos_fname loc.pos_lnum);
                    nodes :=
                      {
                        n_name;
                        n_file = loc.pos_fname;
                        n_line = loc.pos_lnum;
                        n_vb = vb;
                        n_allowed = allowed;
                        n_is_fun = spine_of vb.vb_expr <> [];
                        n_hot = false;
                        n_calls = SS.empty;
                        n_d1 = [];
                        n_d2 = [];
                        n_mut_refs = [];
                        n_spawn_targets = SS.empty;
                        n_spawn_inline = false;
                      }
                      :: !nodes
                | _ -> ())
              vbs
        | Tstr_module mb -> module_binding prefix mb
        | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
        | _ -> ())
      its
  and module_binding prefix (mb : module_binding) =
    let sub =
      match mb.mb_id with Some id -> Ident.name id | None -> "_"
    in
    let rec expr (me : module_expr) =
      match me.mod_desc with
      | Tmod_structure s -> items (prefix ^ "." ^ sub) s.str_items
      | Tmod_constraint (me, _, _, _) -> expr me
      | _ -> ()
    in
    expr mb.mb_expr
  in
  items m_name str.str_items;
  (List.rev !nodes, idents)

(* ------------------------- per-node analysis ----------------------- *)

(* One traversal of a node's body collects everything the closure
   phase needs: call edges, D1/D2 facts, mutable-global references —
   and emits the D3 findings directly (D3 applies everywhere, not
   just under hot roots). *)
let analyze_node (ctx : ctx) (m : modul) (node : node) ~(emit : Finding.t -> unit) : unit =
  let self_mod = m.m_name in
  let spine = ref (spine_of node.n_vb.vb_expr) in
  let allowed = ref node.n_allowed in
  let ok rule = not (SS.mem rule !allowed) in
  let loc_line (e : expression) = e.exp_loc.loc_start.pos_lnum in
  let loc_file (e : expression) = e.exp_loc.loc_start.pos_fname in
  let d1 e what = if ok "d1" then node.n_d1 <- (loc_line e, what) :: node.n_d1 in
  let d2 e what = if ok "d2" then node.n_d2 <- (loc_line e, what) :: node.n_d2 in
  let d3 e name =
    if ok "d3" then
      match first_param_type e.exp_type with
      | None -> ()
      | Some subject ->
          let shape = classify ctx ~self_mod 0 subject in
          let flagged =
            SS.mem name compare_at_any_type
            || (SS.mem name compare_at_composite && shape = Composite)
          in
          if flagged then
            emit
              (Finding.v ~file:(loc_file e) ~line:(loc_line e) ~rule:"d3"
                 ~message:
                   (Printf.sprintf
                      "polymorphic [%s] at a %s type; use the keyed comparison (Int.compare, \
                       Ids.*, or a pattern match)"
                      name (shape_word shape)))
  in
  let super = Tast_iterator.default_iterator in
  let expr (sub : Tast_iterator.iterator) (e : expression) =
    let saved = !allowed in
    allowed := SS.union saved (attrs_allowed e.exp_attributes);
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        let name = canon ~wrappers:ctx.wrappers p in
        (* Call edge: local idents resolve through the module table to
           their full node name; everything else keeps its canonical
           dotted name for cross-module resolution. The resolved name
           is also what the mutable-global table is keyed by — a bare
           [hits] must find [Shard.hits]. *)
        let resolved =
          match p with
          | Path.Pident id ->
              Option.value ~default:name
                (Hashtbl.find_opt m.m_idents (Ident.unique_name id))
          | _ -> name
        in
        node.n_calls <- SS.add resolved node.n_calls;
        if SS.mem name alloc_calls then d1 e (Printf.sprintf "[%s] allocates" name);
        if SS.mem name raise_calls then d2 e (Printf.sprintf "[%s] raises" name);
        if SS.mem name partial_calls then
          d2 e (Printf.sprintf "partial [%s] raises on the missing case" name);
        if SS.mem name compare_at_any_type || SS.mem name compare_at_composite then d3 e name;
        match Hashtbl.find_opt ctx.mutables resolved with
        | Some _ when ok "d4" -> node.n_mut_refs <- (loc_line e, resolved) :: node.n_mut_refs
        | _ -> ())
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when mem_qualified spawn_calls (canon ~wrappers:ctx.wrappers p) -> (
        (* The spawned computation is the final argument; record named
           targets so they become shard roots, and mark the binding
           itself when the closure is inline (the closure's call edges
           land on this node anyway). *)
        match List.rev args with
        | (_, Some a) :: _ -> (
            match a.exp_desc with
            | Texp_ident (ap, _, _) ->
                let aname = canon ~wrappers:ctx.wrappers ap in
                let resolved =
                  match ap with
                  | Path.Pident id ->
                      Option.value ~default:aname
                        (Hashtbl.find_opt m.m_idents (Ident.unique_name id))
                  | _ -> aname
                in
                node.n_spawn_targets <- SS.add resolved node.n_spawn_targets
            | _ -> node.n_spawn_inline <- true)
        | _ -> ())
    | Texp_construct (_, cd, args) ->
        if cd.Types.cstr_name = "::" && args <> [] then d1 e "list cons allocates"
    | Texp_array _ -> d1 e "array literal allocates"
    | Texp_function _ ->
        if not (List.memq e !spine) then d1 e "anonymous closure allocates"
    | Texp_assert _ -> d2 e "[assert] raises"
    | _ -> ());
    super.expr sub e;
    allowed := saved
  in
  let value_binding (sub : Tast_iterator.iterator) (vb : value_binding) =
    let saved = !allowed in
    allowed := SS.union saved (attrs_allowed vb.vb_attributes);
    spine := spine_of vb.vb_expr @ !spine;
    super.value_binding sub vb;
    allowed := saved
  in
  let it = { super with expr; value_binding } in
  it.value_binding it node.n_vb

(* --------------------------- D5: taint ----------------------------- *)

(* Intra-function taint: a digest produced by a [taint_sources]
   function must not reach a branch condition except through a
   [taint_sanitizers] call. Files under crypto/ implement the
   primitives themselves and are exempt. *)
let d5_node (ctx : ctx) (node : node) ~(emit : Finding.t -> unit) : unit =
  if contains_sub node.n_file "crypto/" then ()
  else if SS.mem "d5" node.n_allowed then ()
  else begin
    let tainted : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    (* Does [e] contain a digest — a source application or a tainted
       ident — outside any sanitizer call? *)
    let contains_taint (e : expression) : bool =
      let found = ref false in
      let super = Tast_iterator.default_iterator in
      let rec it = { super with expr = (fun _ e -> walk e) }
      and walk (e : expression) =
        match e.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
            let name = canon ~wrappers:ctx.wrappers p in
            if mem_qualified taint_sanitizers name then () (* sanitized subtree *)
            else begin
              if mem_qualified taint_sources name then found := true;
              List.iter (fun (_, a) -> Option.iter walk a) args
            end
        | Texp_ident (Path.Pident id, _, _) ->
            if Hashtbl.mem tainted (Ident.unique_name id) then found := true
        | _ -> super.expr it e
      in
      walk e;
      !found
    in
    let rec pat_idents : type k. k general_pattern -> string list =
     fun p ->
      match p.pat_desc with
      | Tpat_var (id, _) -> [ Ident.unique_name id ]
      | Tpat_alias (p, id, _) -> Ident.unique_name id :: pat_idents p
      | Tpat_tuple ps -> List.concat_map pat_idents ps
      | _ -> []
    in
    (* A binding is tainted only when a digest is its VALUE — a source
       application (or tainted ident) in result position. Merely
       containing one is not enough: [let ok = Hvf.equal_hvf x (digest ...)]
       binds the comparison's boolean, not the digest. *)
    let rec result_taints (e : expression) : bool =
      match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
          mem_qualified taint_sources (canon ~wrappers:ctx.wrappers p)
      | Texp_ident (Path.Pident id, _, _) -> Hashtbl.mem tainted (Ident.unique_name id)
      | Texp_let (_, _, body) -> result_taints body
      | Texp_sequence (_, b) -> result_taints b
      | Texp_ifthenelse (_, a, b) ->
          result_taints a || (match b with Some b -> result_taints b | None -> false)
      | Texp_match (_, cases, _) -> List.exists (fun c -> result_taints c.c_rhs) cases
      | _ -> false
    in
    let super = Tast_iterator.default_iterator in
    let expr sub (e : expression) =
      (match e.exp_desc with
      | Texp_let (_, vbs, _) ->
          List.iter
            (fun (vb : value_binding) ->
              if result_taints vb.vb_expr then
                List.iter (fun u -> Hashtbl.replace tainted u ()) (pat_idents vb.vb_pat))
            vbs
      | Texp_ifthenelse (cond, _, _) ->
          if
            contains_taint cond
            && not (SS.mem "d5" (attrs_allowed e.exp_attributes))
          then
            emit
              (Finding.v ~file:cond.exp_loc.loc_start.pos_fname
                 ~line:cond.exp_loc.loc_start.pos_lnum ~rule:"d5"
                 ~message:
                   "secret-derived digest flows into a branch condition; compare through \
                    Cmac.verify / Hvf.equal_hvf (constant time)")
      | Texp_match (scrut, _, _) ->
          if
            contains_taint scrut
            && not (SS.mem "d5" (attrs_allowed e.exp_attributes))
          then
            emit
              (Finding.v ~file:scrut.exp_loc.loc_start.pos_fname
                 ~line:scrut.exp_loc.loc_start.pos_lnum ~rule:"d5"
                 ~message:
                   "secret-derived digest is matched on; compare through Cmac.verify / \
                    Hvf.equal_hvf (constant time)")
      | _ -> ());
      super.expr sub e
    in
    let it = { super with expr } in
    it.value_binding it node.n_vb
  end

(* ------------------------- closure + report ------------------------ *)

(* Name map: every node under its full name plus dotted suffixes of
   length >= 2, so [Parallel_router.submit] resolves whether the
   caller sits inside or outside [Dataplane_shard]. Ambiguous
   suffixes resolve to no node at all. *)
let build_resolver (mods : modul list) : (string, node option) Hashtbl.t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun m ->
      List.iter
        (fun node ->
          let comps = String.split_on_char '.' node.n_name in
          let rec suffixes = function
            | [] | [ _ ] -> []
            | _ :: rest as l -> String.concat "." l :: suffixes rest
          in
          List.iter
            (fun key ->
              match Hashtbl.find_opt tbl key with
              | None -> Hashtbl.replace tbl key (Some node)
              | Some (Some other) when other != node -> Hashtbl.replace tbl key None
              | Some _ -> ())
            (suffixes comps))
        m.m_nodes)
    mods;
  tbl

(* BFS from [roots]; returns each reached node with the call chain
   that discovered it (root first). *)
let closure (resolver : (string, node option) Hashtbl.t) (roots : node list) :
    (node * string list) list =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let out = ref [] in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if not (Hashtbl.mem seen r.n_name) then begin
        Hashtbl.replace seen r.n_name ();
        Queue.add (r, [ r.n_name ]) q
      end)
    roots;
  while not (Queue.is_empty q) do
    let node, chain = Queue.pop q in
    out := (node, chain) :: !out;
    SS.iter
      (fun callee ->
        match Hashtbl.find_opt resolver callee with
        | Some (Some n) when n.n_is_fun && not (Hashtbl.mem seen n.n_name) ->
            Hashtbl.replace seen n.n_name ();
            Queue.add (n, chain @ [ n.n_name ]) q
        | _ -> ())
      node.n_calls
  done;
  List.rev !out

let chain_str (chain : string list) : string = String.concat " -> " chain

(* ------------------------------ driver ----------------------------- *)

(* The load step is shared with [colibri-domaincheck], which runs its
   own rules over the same typedtrees with the same canonical names. *)
type loaded = {
  ld_units : (string * structure) list; (* raw cmt_modname, structure *)
  ld_sources : string list; (* .ml files under the scanned roots *)
  ld_wrappers : SS.t; (* wrapper-alias module names, e.g. "Colibri" *)
}

let load (dirs : string list) : loaded =
  let files = List.fold_left walk_files [] dirs in
  let cmts = List.filter (fun f -> Filename.check_suffix f ".cmt") files in
  let ld_sources = List.filter (fun f -> Filename.check_suffix f ".ml") files in
  let ld_units =
    List.filter_map
      (fun f ->
        match Cmt_format.read_cmt f with
        | exception _ -> None
        | cmt -> (
            match cmt.Cmt_format.cmt_annots with
            | Cmt_format.Implementation str -> Some (cmt.Cmt_format.cmt_modname, str)
            | _ -> None))
      cmts
  in
  (* Wrapper aliases: any prefix P observed as "P__M" is a library
     wrapper whose leading component should be dropped from paths. *)
  let ld_wrappers =
    List.fold_left
      (fun acc (name, _) ->
        let demangled = after_dunder name in
        if demangled = name then acc
        else SS.add (String.sub name 0 (String.length name - String.length demangled - 2)) acc)
      SS.empty ld_units
  in
  { ld_units; ld_sources; ld_wrappers }

type scan_result = {
  sr_findings : Finding.t list;
  sr_scanned : int; (* modules analyzed *)
  sr_d4_keys : (string * int * string) list;
      (* (file, line, global) of every D4 finding, suppressed or not —
         [colibri-domaincheck] drops its D6/D7 findings at these keys
         so the two analyzers never double-report one access. *)
}

let scan_ex (dirs : string list) : scan_result =
  let { ld_units = loaded; ld_sources = sources; ld_wrappers = wrappers } = load dirs in
  let markers = marker_index sources in
  let ctx = { wrappers; decls = Hashtbl.create 128; mutables = Hashtbl.create 16 } in
  (* Pass 1: nodes, type declarations, mutable globals. *)
  let mods =
    List.map
      (fun (name, str) ->
        let m_name = after_dunder name in
        let m_nodes, m_idents = collect_nodes ctx ~m_name str in
        { m_name; m_nodes; m_idents })
      loaded
  in
  (* Hot roots: marker-adjacent bindings plus the named observe path. *)
  List.iter
    (fun m ->
      List.iter
        (fun node ->
          let near_marker =
            match Hashtbl.find_opt markers (Filename.basename node.n_file) with
            | None -> false
            | Some lines -> List.exists (fun l -> node.n_line - l >= 1 && node.n_line - l <= 3) lines
          in
          let named =
            SS.mem node.n_name named_hot_roots
            ||
            match List.rev (String.split_on_char '.' node.n_name) with
            | f :: m :: _ -> SS.mem (m ^ "." ^ f) named_hot_roots
            | _ -> false
          in
          if near_marker || named then node.n_hot <- true)
        m.m_nodes)
    mods;
  (* Pass 2: per-node facts; D3/D5 emit directly. *)
  let direct = ref [] in
  let emit f = direct := f :: !direct in
  List.iter
    (fun m ->
      List.iter
        (fun node ->
          analyze_node ctx m node ~emit;
          d5_node ctx node ~emit)
        m.m_nodes)
    mods;
  (* Pass 3: hot closure (D1/D2) and shard closure (D4). *)
  if Sys.getenv_opt "COLIBRI_DEEPSCAN_DEBUG" <> None then begin
    Hashtbl.iter (fun k v -> Printf.eprintf "MUTABLE %s (%s)\n" k v) ctx.mutables;
    List.iter
      (fun m ->
        List.iter
          (fun n ->
            Printf.eprintf "NODE %s hot=%b fun=%b mut_refs=[%s] calls=[%s]\n" n.n_name n.n_hot
              n.n_is_fun
              (String.concat "," (List.map snd n.n_mut_refs))
              (String.concat "," (SS.elements n.n_calls)))
          m.m_nodes)
      mods
  end;
  let resolver = build_resolver mods in
  let all_nodes = List.concat_map (fun m -> m.m_nodes) mods in
  let hot_roots = List.filter (fun n -> n.n_hot) all_nodes in
  (* Shard roots: the original heuristic (a [*shard*] module path
     component) plus every function handed to [Domain.spawn] — found
     by name through the resolver — and every binding that spawns an
     inline closure. *)
  let spawn_targets =
    List.fold_left (fun acc n -> SS.union acc n.n_spawn_targets) SS.empty all_nodes
  in
  let spawned (n : node) : bool =
    SS.mem n.n_name spawn_targets
    || SS.exists
         (fun t ->
           match Hashtbl.find_opt resolver t with
           | Some (Some target) -> target == n
           | _ -> false)
         spawn_targets
  in
  let shard_roots =
    List.filter
      (fun n ->
        (match List.rev (String.split_on_char '.' n.n_name) with
        | _fn :: mods -> List.exists (fun m -> contains_sub (String.lowercase_ascii m) "shard") mods
        | [] -> false)
        || n.n_spawn_inline || spawned n)
      all_nodes
  in
  let findings = ref [] in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let add (f : Finding.t) =
    let key = Printf.sprintf "%s|%s|%d|%s" f.rule f.file f.line f.message in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      findings := f :: !findings
    end
  in
  List.iter add (List.rev !direct);
  List.iter
    (fun (node, chain) ->
      let via =
        if List.length chain <= 1 then "" else Printf.sprintf " (via %s)" (chain_str chain)
      in
      List.iter
        (fun (line, what) ->
          add
            (Finding.v ~file:node.n_file ~line ~rule:"d1"
               ~message:(Printf.sprintf "allocation in hot closure: %s%s" what via)))
        node.n_d1;
      List.iter
        (fun (line, what) ->
          add
            (Finding.v ~file:node.n_file ~line ~rule:"d2"
               ~message:(Printf.sprintf "exception can escape the hot path: %s%s" what via)))
        node.n_d2)
    (closure resolver hot_roots);
  let d4_keys = ref [] in
  List.iter
    (fun (node, chain) ->
      List.iter
        (fun (line, global) ->
          d4_keys := (node.n_file, line, global) :: !d4_keys;
          add
            (Finding.v ~file:node.n_file ~line ~rule:"d4"
               ~message:
                 (Printf.sprintf
                    "shard worker touches module-level mutable state [%s]%s; route it through \
                     the per-shard state record"
                    global
                    (if List.length chain <= 1 then ""
                     else Printf.sprintf " (via %s)" (chain_str chain)))))
        node.n_mut_refs)
    (closure resolver shard_roots);
  {
    sr_findings = List.sort Finding.order !findings;
    sr_scanned = List.length loaded;
    sr_d4_keys = List.rev !d4_keys;
  }

let scan (dirs : string list) : Finding.t list * int =
  let r = scan_ex dirs in
  (r.sr_findings, r.sr_scanned)

let run_cli (args : string list) : int =
  match Lint.Baseline.parse_args args with
  | Error msg ->
      prerr_endline ("colibri_deepscan: " ^ msg);
      2
  | Ok (_, _, []) ->
      prerr_endline "usage: colibri_deepscan [--json] [--baseline FILE] <dir> [<dir> ...]";
      2
  | Ok (json, baseline, dirs) ->
      let findings, scanned = scan dirs in
      Lint.Baseline.run_report ~tool:"colibri-deepscan" ~scanned ~unit_name:"module" ~json
        ~baseline findings
