(** The reference admission backend: N-Tube-style bounded tube
    fairness for segment reservations and constant-time bandwidth
    walks for end-to-end reservations (§4.7).

    {b Segment reservations} ({!Seg}): each AS distributes the Colibri
    share of an ingress–egress interface pair among competing SegRs
    proportionally to their {e adjusted} demand, obtained by

    + limiting the total demand from an ingress interface by that
      interface's capacity;
    + limiting the total demand between an ingress and an egress
      interface by the egress capacity; and
    + limiting the total demand of a particular source AS at a
      particular egress interface by that capacity

    (bounded tube fairness [62]). The implementation keeps {e memoized
    running aggregates} — per-ingress demand, per-tube demand,
    per-(source, egress) demand, per-egress adjusted demand and
    allocation — so one admission costs a constant number of
    hash-table operations {e independent of the number of existing
    reservations}: the property Fig. 3 measures. Existing grants are
    not recomputed on new admissions; they are re-negotiated at
    renewal (§4.2), exactly as in the paper.

    {b End-to-end reservations} ({!Eer}): admission against a SegR is
    a constant-time bandwidth check (Fig. 4). Versions of one EER
    count with their maximum, not their sum, since monitoring maps all
    versions to one flow (§4.2). At transfer ASes, a core-SegR's
    bandwidth is distributed between competing up-SegRs proportionally
    to their total requested EER bandwidth, capped at each up-SegR's
    size.

    {!B} packs both under the {!Backend_intf.S} contract; as a chained
    discipline it pays a forward and a backward control message per
    on-path AS per admission. *)

open Colibri_types

type decision = Backend_intf.decision =
  | Granted of Bandwidth.t
  | Denied of { available : Bandwidth.t }

let pp_decision = Backend_intf.pp_decision

(* Float-sum accumulators in keyed hash tables (lint rule [poly-hash]:
   no polymorphic hashing of identifier keys on the admission path). *)
module Acc (T : Hashtbl.S) = struct
  type t = float T.t

  let create n : t = T.create n
  let get (t : t) k = Option.value ~default:0. (T.find_opt t k)

  (* Saturating, not plain (+.): one crafted inf/2^63-bps demand must
     not poison an accumulator every later admission divides by. *)
  let add (t : t) k dv =
    let v = Bandwidth.saturating_add (get t k) dv in
    if v <= 1e-9 then T.remove t k else T.replace t k v

  (* Recompute-and-diff support for [audit]: fold [items] into a fresh
     accumulator with [fold], then report every key whose recomputed
     sum differs from the incremental one beyond float drift. *)
  let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

  let diff ~(what : string) ~(pp_key : T.key Fmt.t) (stored : t) (fresh : t) : string list
      =
    let errs = ref [] in
    let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
    T.iter
      (fun k fresh_v ->
        let stored_v = get stored k in
        if not (close stored_v fresh_v) then
          err "%s[%a]: stored %.6g, recomputed %.6g" what pp_key k stored_v fresh_v)
      fresh;
    T.iter
      (fun k stored_v ->
        if not (T.mem fresh k) && not (close stored_v 0.) then
          err "%s[%a]: stored %.6g, recomputed 0 (stale key)" what pp_key k stored_v)
      stored;
    !errs
end

module Iface_acc = Acc (Ids.Iface_tbl)
module Tube_acc = Acc (Ids.Iface_pair_tbl)
module Src_acc = Acc (Ids.Src_egress_tbl)
module Res_acc = Acc (Ids.Res_key_tbl)
module Pair_acc = Acc (Ids.Res_pair_tbl)

module Seg = struct
  (* A version of a SegR currently counted in the aggregates. *)
  type entry = {
    src : Ids.asn;
    ingress : Ids.iface;
    egress : Ids.iface;
    demand : float;
    adj1 : float;
    adj2 : float;
    adj3 : float;
    mutable granted : float;
    mutable removed : bool;
  }

  type t = {
    capacity : Ids.iface -> Bandwidth.t; (* raw interface capacity *)
    share : float; (* fraction of capacity available to SegRs *)
    in_demand : Iface_acc.t;
    tube_demand : Tube_acc.t;
    src_demand : Src_acc.t; (* (source AS, egress) *)
    egress_adjusted : Iface_acc.t;
    egress_allocated : Iface_acc.t;
    entries : entry Ids.Res_ver_tbl.t; (* keyed by (res, version) *)
    expiry : Expiry.t;
    mutable admissions : int;
  }

  let create ~(capacity : Ids.iface -> Bandwidth.t) ?(share = 0.80) () : t =
    {
      capacity;
      share;
      in_demand = Iface_acc.create 64;
      tube_demand = Tube_acc.create 64;
      src_demand = Src_acc.create 256;
      egress_adjusted = Iface_acc.create 64;
      egress_allocated = Iface_acc.create 64;
      entries = Ids.Res_ver_tbl.create 1024;
      expiry = Expiry.create ();
      admissions = 0;
    }

  let colibri_cap (t : t) (iface : Ids.iface) : float =
    if iface = Ids.local_iface then Float.max_float
    else t.share *. Bandwidth.to_bps (t.capacity iface)

  let src_key (src : Ids.asn) (egress : Ids.iface) = (src, egress)

  let unaccount (t : t) ((rk, ver) : Ids.res_key * int) (e : entry) =
    if not e.removed then begin
      e.removed <- true;
      Iface_acc.add t.in_demand e.ingress (-.e.demand);
      Tube_acc.add t.tube_demand (e.ingress, e.egress) (-.e.adj1);
      Src_acc.add t.src_demand (src_key e.src e.egress) (-.e.adj2);
      Iface_acc.add t.egress_adjusted e.egress (-.e.adj3);
      Iface_acc.add t.egress_allocated e.egress (-.e.granted);
      Ids.Res_ver_tbl.remove t.entries (rk, ver)
    end

  (** Admit (tentatively) one SegR version. [demand] is the requested
      bandwidth, [min_bw] the minimum acceptable one; a grant below
      [min_bw] denies the request and leaves no state behind. The
      grant becomes definitive when the backward pass calls
      {!set_granted} with the path-wide minimum. *)
  let admit (t : t) ~(key : Ids.res_key) ~(version : int) ~(src : Ids.asn)
      ~(ingress : Ids.iface) ~(egress : Ids.iface) ~(demand : Bandwidth.t)
      ~(min_bw : Bandwidth.t) ~(exp_time : Timebase.t) ~(now : Timebase.t) : decision
      =
    Expiry.sweep t.expiry ~now;
    t.admissions <- t.admissions + 1;
    if Ids.Res_ver_tbl.mem t.entries (key, version) then
      Denied { available = Bandwidth.zero } (* duplicate setup *)
    else begin
      (* Clamp the wire-derived demand before any ledger arithmetic:
         an inf demand would otherwise make [in_total] infinite,
         [cap_in /. in_total] zero and [adj1 = inf *. 0.] NaN — which
         the accumulators would then absorb permanently. *)
      let d = Bandwidth.to_bps (Bandwidth.clamp demand) in
      let cap_in = colibri_cap t ingress and cap_eg = colibri_cap t egress in
      (* Rule 1: ingress capacity bounds total ingress demand. *)
      let in_total = Iface_acc.get t.in_demand ingress +. d in
      let adj1 = d *. Float.min 1. (cap_in /. in_total) in
      (* Rule 2: egress capacity bounds the (ingress,egress) tube. *)
      let tube_total = Tube_acc.get t.tube_demand (ingress, egress) +. adj1 in
      let adj2 = adj1 *. Float.min 1. (cap_eg /. tube_total) in
      (* Rule 3: egress capacity bounds any single source AS. *)
      let src_total = Src_acc.get t.src_demand (src_key src egress) +. adj2 in
      let adj3 = adj2 *. Float.min 1. (cap_eg /. src_total) in
      (* Proportional share of the egress capacity, and hard free-capacity
         cap so that the sum of grants never exceeds the egress. *)
      let ideal = cap_eg *. adj3 /. (Iface_acc.get t.egress_adjusted egress +. adj3) in
      let free = Float.max 0. (cap_eg -. Iface_acc.get t.egress_allocated egress) in
      let granted = Float.min adj3 (Float.min ideal free) in
      if granted +. 1e-9 < Bandwidth.to_bps min_bw then
        Denied { available = Bandwidth.of_bps granted }
      else begin
        let entry =
          { src; ingress; egress; demand = d; adj1; adj2; adj3; granted; removed = false }
        in
        Ids.Res_ver_tbl.replace t.entries (key, version) entry;
        Iface_acc.add t.in_demand ingress d;
        Tube_acc.add t.tube_demand (ingress, egress) adj1;
        Src_acc.add t.src_demand (src_key src egress) adj2;
        Iface_acc.add t.egress_adjusted egress adj3;
        Iface_acc.add t.egress_allocated egress granted;
        Expiry.push t.expiry ~at:exp_time (fun () -> unaccount t (key, version) entry);
        Granted (Bandwidth.of_bps granted)
      end
    end

  (** Shrink a tentative grant to the final path-wide value (backward
      pass of the setup). Raising above the local grant is refused. *)
  let set_granted (t : t) ~(key : Ids.res_key) ~(version : int)
      ~(granted : Bandwidth.t) : (unit, string) result =
    match Ids.Res_ver_tbl.find_opt t.entries (key, version) with
    | None -> Error "unknown reservation version"
    | Some e ->
        let g = Bandwidth.to_bps granted in
        if g > e.granted +. 1e-6 then Error "cannot raise grant"
        else begin
          Iface_acc.add t.egress_allocated e.egress (g -. e.granted);
          e.granted <- g;
          Ok ()
        end

  (** Remove one version (cleanup of a failed setup, or deactivation
      after a version switch). A no-op on unknown (key, version) so
      retransmitted teardowns are idempotent, like setups. *)
  let remove (t : t) ~(key : Ids.res_key) ~(version : int) =
    match Ids.Res_ver_tbl.find_opt t.entries (key, version) with
    | Some e -> unaccount t (key, version) e
    | None -> ()

  let granted_of (t : t) ~key ~version =
    Option.map
      (fun e -> Bandwidth.of_bps e.granted)
      (Ids.Res_ver_tbl.find_opt t.entries (key, version))

  let count (t : t) = Ids.Res_ver_tbl.length t.entries
  let admissions (t : t) = t.admissions

  let allocated_on (t : t) ~(egress : Ids.iface) : Bandwidth.t =
    Bandwidth.of_bps (Iface_acc.get t.egress_allocated egress)

  let pp_iface = Fmt.int
  let pp_tube ppf (i, e) = Fmt.pf ppf "%d→%d" i e
  let pp_src_egress ppf (src, e) = Fmt.pf ppf "%a→%d" Ids.pp_asn src e

  (** Recompute every memoized aggregate from the entry table and diff
      it against the incremental state — the sanitizer for the
      constant-cost admission bookkeeping (Fig. 3). Returns one message
      per discrepancy; [[]] means the state is consistent. *)
  let audit (t : t) : string list =
    let in_demand = Iface_acc.create 64 in
    let tube_demand = Tube_acc.create 64 in
    let src_demand = Src_acc.create 64 in
    let egress_adjusted = Iface_acc.create 64 in
    let egress_allocated = Iface_acc.create 64 in
    let errs = ref [] in
    Ids.Res_ver_tbl.iter
      (fun (rk, ver) e ->
        if e.removed then
          errs :=
            Fmt.str "entries[%a#%d]: removed entry still in table" Ids.pp_res_key rk ver
            :: !errs;
        if e.granted < -1e-9 || Float.is_nan e.granted then
          errs :=
            Fmt.str "entries[%a#%d]: invalid grant %.6g" Ids.pp_res_key rk ver e.granted
            :: !errs;
        Iface_acc.add in_demand e.ingress e.demand;
        Tube_acc.add tube_demand (e.ingress, e.egress) e.adj1;
        Src_acc.add src_demand (src_key e.src e.egress) e.adj2;
        Iface_acc.add egress_adjusted e.egress e.adj3;
        Iface_acc.add egress_allocated e.egress e.granted)
      t.entries;
    (* The sum of grants must never exceed an egress's Colibri share
       (bounded tube fairness, §4.7). *)
    Ids.Iface_tbl.iter
      (fun egress alloc ->
        let cap = colibri_cap t egress in
        if alloc > cap +. 1e-6 *. Float.max 1. cap then
          errs :=
            Fmt.str "egress %d oversubscribed: %.6g allocated > %.6g capacity" egress
              alloc cap
            :: !errs)
      egress_allocated;
    !errs
    @ Iface_acc.diff ~what:"in_demand" ~pp_key:pp_iface t.in_demand in_demand
    @ Tube_acc.diff ~what:"tube_demand" ~pp_key:pp_tube t.tube_demand tube_demand
    @ Src_acc.diff ~what:"src_demand" ~pp_key:pp_src_egress t.src_demand src_demand
    @ Iface_acc.diff ~what:"egress_adjusted" ~pp_key:pp_iface t.egress_adjusted
        egress_adjusted
    @ Iface_acc.diff ~what:"egress_allocated" ~pp_key:pp_iface t.egress_allocated
        egress_allocated

  (** Deliberately skew one memoized aggregate so tests can verify that
      {!audit} detects corruption. Never call outside tests. *)
  let corrupt_for_test (t : t) =
    Iface_acc.add t.in_demand Ids.local_iface 1.0e6
end

module Eer = struct
  (* Per-EER accounting: versions of one EER contribute max, not sum. *)
  type flow = {
    mutable versions : (int * float * Timebase.t) list; (* (ver, bw, exp) *)
    mutable contribution : float; (* currently counted towards each segr *)
    segrs : Ids.res_key list;
    via_up : (Ids.res_key * Ids.res_key) option; (* (core, up) competition slot *)
  }

  type t = {
    (* Σ EER bandwidth currently allocated over each SegR. *)
    alloc : float Ids.Res_key_tbl.t;
    (* Per (core-SegR, up-SegR): EER demand competing for the core SegR. *)
    up_demand : float Ids.Res_pair_tbl.t;
    up_total : float Ids.Res_key_tbl.t; (* per core-SegR: Σ over up-SegRs *)
    flows : flow Ids.Res_key_tbl.t;
    expiry : Expiry.t;
    mutable admissions : int;
  }

  let create () : t =
    {
      alloc = Ids.Res_key_tbl.create 4096;
      up_demand = Ids.Res_pair_tbl.create 64;
      up_total = Ids.Res_key_tbl.create 64;
      flows = Ids.Res_key_tbl.create 4096;
      expiry = Expiry.create ();
      admissions = 0;
    }

  let alloc_of (t : t) (segr : Ids.res_key) =
    Option.value ~default:0. (Ids.Res_key_tbl.find_opt t.alloc segr)

  let add_alloc (t : t) (segr : Ids.res_key) dv =
    let v = Bandwidth.saturating_add (alloc_of t segr) dv in
    if v <= 1e-9 then Ids.Res_key_tbl.remove t.alloc segr
    else Ids.Res_key_tbl.replace t.alloc segr v

  let up_demand_of (t : t) slot =
    Option.value ~default:0. (Ids.Res_pair_tbl.find_opt t.up_demand slot)

  let add_up_demand (t : t) ((core, _up) as slot) dv =
    let v = Bandwidth.saturating_add (up_demand_of t slot) dv in
    if v <= 1e-9 then Ids.Res_pair_tbl.remove t.up_demand slot
    else Ids.Res_pair_tbl.replace t.up_demand slot v;
    let tot =
      Bandwidth.saturating_add
        (Option.value ~default:0. (Ids.Res_key_tbl.find_opt t.up_total core))
        dv
    in
    if tot <= 1e-9 then Ids.Res_key_tbl.remove t.up_total core
    else Ids.Res_key_tbl.replace t.up_total core tot

  (* Recompute a flow's contribution (max over unexpired versions) and
     propagate the delta into the aggregates. *)
  let refresh_flow (t : t) (key : Ids.res_key) (f : flow) ~now =
    f.versions <- List.filter (fun (_, _, exp) -> now < exp) f.versions;
    let contribution =
      List.fold_left (fun acc (_, bw, _) -> Float.max acc bw) 0. f.versions
    in
    let delta = contribution -. f.contribution in
    if Float.abs delta > 0. then begin
      List.iter (fun segr -> add_alloc t segr delta) f.segrs;
      (match f.via_up with Some slot -> add_up_demand t slot delta | None -> ());
      f.contribution <- contribution
    end;
    if List.is_empty f.versions then Ids.Res_key_tbl.remove t.flows key

  (** Admit one EER version over the given SegRs. [segr_bw segr]
      returns the SegR's current bandwidth (0 when expired/unknown).
      [via_up = Some (core, up)] marks admission at a transfer AS
      between an up- and a core-SegR, where the core bandwidth is
      shared proportionally between competing up-SegRs.

      [partial = true] implements the renewal flexibility of §4.2 ("all
      on-path ASes can specify the amount of bandwidth they are willing
      to grant"): instead of denying a demand that does not fully fit,
      the AS grants what fits — the path-wide minimum then becomes the
      renewed version's bandwidth. Setup requests use [partial = false]
      (grant-if-fits, §4.7). *)
  let admit ?(partial = false) (t : t) ~(key : Ids.res_key) ~(version : int)
      ~(segrs : (Ids.res_key * Bandwidth.t) list)
      ~(via_up : (Ids.res_key * Ids.res_key * Bandwidth.t) option)
      ~(demand : Bandwidth.t) ~(exp_time : Timebase.t) ~(now : Timebase.t) : decision
      =
    Expiry.sweep t.expiry ~now;
    t.admissions <- t.admissions + 1;
    (* Same clamp as segment admission: wire-derived magnitudes stay
       inside the representable ledger band. *)
    let d = Bandwidth.to_bps (Bandwidth.clamp demand) in
    let flow = Ids.Res_key_tbl.find_opt t.flows key in
    (match flow with Some f -> refresh_flow t key f ~now | None -> ());
    let existing = match flow with Some f -> f.contribution | None -> 0. in
    (* Only the increase over the flow's current contribution needs
       headroom: versions count with their max (§4.2). *)
    let extra = Float.max 0. (d -. existing) in
    (* Headroom in every underlying SegR. *)
    let headroom =
      List.fold_left
        (fun acc (segr, bw) ->
          Float.min acc (Bandwidth.to_bps bw -. alloc_of t segr))
        Float.max_float segrs
    in
    (* Transfer-AS rule: this up-SegR's proportional share of the core
       SegR. Demand figures are capped at the up-SegR's size. *)
    let up_share_headroom =
      match via_up with
      | None -> Float.max_float
      | Some (core, up, core_bw) ->
          let slot = (core, up) in
          let up_bw =
            List.fold_left
              (fun acc (k, bw) -> if Ids.equal_res_key k up then Bandwidth.to_bps bw else acc)
              0. segrs
          in
          let my_demand = Float.min (up_demand_of t slot +. extra) up_bw in
          let total =
            Option.value ~default:0. (Ids.Res_key_tbl.find_opt t.up_total core) +. extra
          in
          if total <= Bandwidth.to_bps core_bw then Float.max_float
          else begin
            (* Core SegR oversubscribed: proportional share. *)
            let share = Bandwidth.to_bps core_bw *. my_demand /. total in
            share -. up_demand_of t slot
          end
    in
    let grantable = Float.min headroom up_share_headroom in
    (* What this AS is willing to grant for the new version. *)
    let granted =
      if extra <= grantable +. 1e-9 then d
      else if partial then Float.max 0. (Float.min d (existing +. grantable))
      else 0.
    in
    if (not partial) && extra > grantable +. 1e-9 then
      Denied { available = Bandwidth.of_bps (Float.max 0. (existing +. grantable)) }
    else if partial && granted <= 0. then
      Denied { available = Bandwidth.zero }
    else begin
      let d = granted in
      let f =
        match Ids.Res_key_tbl.find_opt t.flows key with
        | Some f -> f
        | None ->
            let f =
              {
                versions = [];
                contribution = 0.;
                segrs = List.map fst segrs;
                via_up =
                  Option.map (fun (core, up, _) -> (core, up)) via_up;
              }
            in
            Ids.Res_key_tbl.replace t.flows key f;
            f
      in
      f.versions <- (version, d, exp_time) :: f.versions;
      refresh_flow t key f ~now;
      Expiry.push t.expiry ~at:exp_time (fun () ->
          match Ids.Res_key_tbl.find_opt t.flows key with
          | Some f -> refresh_flow t key f ~now:exp_time
          | None -> ());
      Granted (Bandwidth.of_bps d)
    end

  (** Cleanup of a failed setup: drop one tentative version. A no-op
      on unknown key or version — symmetric with {!Seg.remove}, so
      retransmitted teardowns are idempotent. *)
  let remove_version (t : t) ~(key : Ids.res_key) ~(version : int) ~(now : Timebase.t) =
    match Ids.Res_key_tbl.find_opt t.flows key with
    | None -> ()
    | Some f ->
        f.versions <- List.filter (fun (v, _, _) -> v <> version) f.versions;
        refresh_flow t key f ~now

  (** Grant already held by a (key, version) pair — the retransmission
      shortcut: re-admitting a version that is already live would
      double-add it, so handlers answer retransmits from here. *)
  let granted_of (t : t) ~(key : Ids.res_key) ~(version : int) : Bandwidth.t option =
    match Ids.Res_key_tbl.find_opt t.flows key with
    | None -> None
    | Some f ->
        List.find_map
          (fun (v, bw, _) ->
            if Int.equal v version then Some (Bandwidth.of_bps bw) else None)
          f.versions

  let allocated_over (t : t) (segr : Ids.res_key) : Bandwidth.t =
    Bandwidth.of_bps (alloc_of t segr)

  let flow_count (t : t) = Ids.Res_key_tbl.length t.flows
  let admissions (t : t) = t.admissions

  let pp_pair ppf (core, up) = Fmt.pf ppf "%a/%a" Ids.pp_res_key core Ids.pp_res_key up

  (** Recompute the per-SegR allocation and the transfer-AS competition
      aggregates from the flow table and diff them against the
      incremental state; also re-derive each flow's contribution (max
      over live versions, §4.2). [[]] means consistent. *)
  let audit (t : t) : string list =
    let alloc = Res_acc.create 64 in
    let up_demand = Pair_acc.create 64 in
    let up_total = Res_acc.create 64 in
    let errs = ref [] in
    Ids.Res_key_tbl.iter
      (fun key (f : flow) ->
        if List.is_empty f.versions then
          errs :=
            Fmt.str "flows[%a]: empty flow still in table" Ids.pp_res_key key :: !errs;
        let expected =
          List.fold_left (fun acc (_, bw, _) -> Float.max acc bw) 0. f.versions
        in
        if not (Float.equal expected f.contribution) then
          errs :=
            Fmt.str "flows[%a]: contribution %.6g, max over versions %.6g"
              Ids.pp_res_key key f.contribution expected
            :: !errs;
        List.iter (fun segr -> Res_acc.add alloc segr f.contribution) f.segrs;
        match f.via_up with
        | Some ((core, _) as slot) ->
            Pair_acc.add up_demand slot f.contribution;
            Res_acc.add up_total core f.contribution
        | None -> ())
      t.flows;
    !errs
    @ Res_acc.diff ~what:"alloc" ~pp_key:Ids.pp_res_key t.alloc alloc
    @ Pair_acc.diff ~what:"up_demand" ~pp_key:pp_pair t.up_demand up_demand
    @ Res_acc.diff ~what:"up_total" ~pp_key:Ids.pp_res_key t.up_total up_total

  (** Deliberately skew one memoized aggregate so tests can verify that
      {!audit} detects corruption. Never call outside tests. *)
  let corrupt_for_test (t : t) =
    let phantom = { Ids.src_as = { Ids.isd = 999; num = 999 }; res_id = max_int } in
    add_alloc t phantom 1.0e6
end

(** The {!Backend_intf.S} packaging: one [Seg] plus one [Eer] state
    behind the uniform interface, with the retransmission shortcut
    ([granted_of] before [admit]) folded into [admit_*] so re-admits
    are idempotent at the interface boundary. *)
module B : Backend_intf.S = struct
  type t = {
    seg : Seg.t;
    eer : Eer.t;
    mutable admit_calls : int;
    mutable msgs : int;
  }

  let name = "ntube"

  (* The chained discipline: a setup walks the path forward (admission
     at each AS) and backward (commit of the path-wide minimum), so
     each on-path AS sees two control messages per admission —
     retransmits included, since the walk repeats. *)
  let commit_required = true
  let capacity_bound_enforced = true

  let create ~capacity ?share () =
    { seg = Seg.create ~capacity ?share (); eer = Eer.create (); admit_calls = 0; msgs = 0 }

  let admit_seg (t : t) ~(req : Backend_intf.seg_request) ~now =
    t.admit_calls <- t.admit_calls + 1;
    t.msgs <- t.msgs + 2;
    match Seg.granted_of t.seg ~key:req.key ~version:req.version with
    | Some bw -> Granted bw
    | None ->
        Seg.admit t.seg ~key:req.key ~version:req.version ~src:req.src
          ~ingress:req.ingress ~egress:req.egress ~demand:req.demand
          ~min_bw:req.min_bw ~exp_time:req.exp_time ~now

  let commit_seg (t : t) ~key ~version ~granted =
    Seg.set_granted t.seg ~key ~version ~granted

  let admit_eer (t : t) ~(req : Backend_intf.eer_request) ~now =
    t.admit_calls <- t.admit_calls + 1;
    t.msgs <- t.msgs + 2;
    match Eer.granted_of t.eer ~key:req.key ~version:req.version with
    | Some bw -> Granted bw
    | None ->
        Eer.admit ~partial:req.renewal t.eer ~key:req.key ~version:req.version
          ~segrs:req.segrs ~via_up:req.via_up ~demand:req.demand
          ~exp_time:req.exp_time ~now

  let remove_seg (t : t) ~key ~version ~now:_ = Seg.remove t.seg ~key ~version
  let remove_eer (t : t) ~key ~version ~now = Eer.remove_version t.eer ~key ~version ~now
  let seg_granted_of (t : t) ~key ~version = Seg.granted_of t.seg ~key ~version
  let eer_granted_of (t : t) ~key ~version = Eer.granted_of t.eer ~key ~version
  let seg_allocated_on (t : t) ~egress = Seg.allocated_on t.seg ~egress
  let eer_allocated_over (t : t) ~segr = Eer.allocated_over t.eer segr
  let seg_count (t : t) = Seg.count t.seg
  let eer_flow_count (t : t) = Eer.flow_count t.eer
  let admissions (t : t) = t.admit_calls
  let control_messages (t : t) = t.msgs
  let audit (t : t) = Seg.audit t.seg @ Eer.audit t.eer

  let obs_snapshot (t : t) =
    Backend_intf.standard_snapshot ~name ~seg_count:(seg_count t)
      ~eer_flow_count:(eer_flow_count t) ~admissions:t.admit_calls
      ~control_messages:t.msgs

  let corrupt_for_test (t : t) = Seg.corrupt_for_test t.seg
end

let factory : Backend_intf.factory =
  {
    label = "ntube";
    make =
      (fun ~capacity ?share () ->
        Backend_intf.Instance ((module B), B.create ~capacity ?share ()));
  }
