(** IntServ/RSVP admission backend: per-flow soft-state ports (one per
    egress interface) behind the {!Backend_intf.S} contract.

    Each reservation — SegR or EER alike, RSVP has only flows — becomes
    one per-flow soft-state record on its egress port. Admission is a
    deliberate O(#flows) scan of the port's flow list; the discipline is chained
    (PATH forward, RESV backward), so like the reference backend it
    pays two control messages per on-path AS per admission, but unlike
    it the admission cost grows with the number of installed
    reservations (§8, Table 1 — the contrast the bench's
    [setup_latency] column shows). All-or-nothing grants: RSVP does not
    negotiate a demand down, so a request that does not fit is denied
    with the current headroom as [available]. *)

open Colibri_types

(* One egress port's RSVP soft state: a plain per-flow list, walked on
   every admission and teardown to expire stale flows and sum the
   committed bandwidth — the deliberate O(#flows) cost the ablation
   bench measures against Colibri's memoized admission (§8, Table 1).
   Flow ids are taken at face value: nothing authenticates them. *)
module Port = struct
  type flow_id = { src : int; dst : int }
  type flow = { id : flow_id; bw : Bandwidth.t; exp_time : Timebase.t }

  type t = {
    cap : Bandwidth.t; (* reservable: share x link capacity *)
    mutable flows : flow list;
  }

  let create ~(cap : Bandwidth.t) : t = { cap; flows = [] }

  (* Sum of live flows; expires soft state on the way. *)
  let committed (t : t) ~(now : Timebase.t) : Bandwidth.t =
    t.flows <- List.filter (fun f -> now < f.exp_time) t.flows;
    List.fold_left (fun acc f -> Bandwidth.add acc f.bw) Bandwidth.zero t.flows

  (* Admit if the new flow fits next to everything committed. *)
  let admit (t : t) ~(id : flow_id) ~(bw : Bandwidth.t) ~(exp_time : Timebase.t)
      ~(now : Timebase.t) : [ `Admitted | `Rejected ] =
    let used = committed t ~now in
    if Bandwidth.(add used bw <= t.cap) then begin
      t.flows <- { id; bw; exp_time } :: t.flows;
      `Admitted
    end
    else `Rejected

  let same_id (a : flow_id) (b : flow_id) = a.src = b.src && a.dst = b.dst

  let classify (t : t) ~(id : flow_id) : flow option =
    List.find_opt (fun f -> same_id f.id id) t.flows

  (* Teardown (ResvTear); a no-op on unknown ids. *)
  let remove (t : t) ~(id : flow_id) =
    t.flows <- List.filter (fun f -> not (same_id f.id id)) t.flows
end

(* One reservation's binding to its port. [fid] is the synthetic RSVP
   flow identifier; entries are compared physically in expiry thunks so
   a re-admitted (key, version) is never torn down by a stale thunk. *)
type res = {
  egress : Ids.iface;
  fid : Port.flow_id;
  mutable bw : float; (* bps *)
  exp_time : Timebase.t;
}

module B : Backend_intf.S = struct
  type t = {
    capacity : Ids.iface -> Bandwidth.t;
    share : float;
    ports : Port.t Ids.Iface_tbl.t;
    seg_entries : res Ids.Res_ver_tbl.t;
    eer_entries : res Ids.Res_ver_tbl.t;
    expiry : Expiry.t;
    mutable next_fid : int;
    mutable last_now : Timebase.t;
    mutable admit_calls : int;
    mutable msgs : int;
  }

  let name = "intserv"
  let commit_required = true (* RESV carries the path-wide reservation *)
  let capacity_bound_enforced = true

  let create ~capacity ?(share = 0.80) () =
    {
      capacity;
      share;
      ports = Ids.Iface_tbl.create 16;
      seg_entries = Ids.Res_ver_tbl.create 256;
      eer_entries = Ids.Res_ver_tbl.create 1024;
      expiry = Expiry.create ();
      next_fid = 1;
      last_now = 0.;
      admit_calls = 0;
      msgs = 0;
    }

  (* Traffic to the AS itself never crosses a capacity-bound link. *)
  let port_capacity (t : t) (egress : Ids.iface) : Bandwidth.t =
    if egress = Ids.local_iface then Bandwidth.of_bps 1e15 else t.capacity egress

  let port_for (t : t) (egress : Ids.iface) : Port.t =
    match Ids.Iface_tbl.find_opt t.ports egress with
    | Some p -> p
    | None ->
        let p =
          Port.create ~cap:(Bandwidth.scale t.share (port_capacity t egress))
        in
        Ids.Iface_tbl.replace t.ports egress p;
        p

  let headroom (t : t) (egress : Ids.iface) ~now : float =
    let port = port_for t egress in
    let cap = t.share *. Bandwidth.to_bps (port_capacity t egress) in
    Float.max 0. (cap -. Bandwidth.to_bps (Port.committed port ~now))

  (* Shared admit for both reservation classes: RSVP knows only flows. *)
  let admit_flow (t : t) (entries : res Ids.Res_ver_tbl.t) ~key ~version ~egress
      ~(demand : Bandwidth.t) ~(min_bw : Bandwidth.t) ~exp_time ~now :
      Backend_intf.decision =
    Expiry.sweep t.expiry ~now;
    t.last_now <- Float.max t.last_now now;
    t.admit_calls <- t.admit_calls + 1;
    t.msgs <- t.msgs + 2;
    match Ids.Res_ver_tbl.find_opt entries (key, version) with
    | Some e -> Granted (Bandwidth.of_bps e.bw) (* retransmission *)
    | None ->
        let port = port_for t egress in
        let fid = { Port.src = t.next_fid; dst = egress } in
        t.next_fid <- t.next_fid + 1;
        if Bandwidth.(demand < min_bw) then
          Denied { available = Bandwidth.zero }
        else begin
          match Port.admit port ~id:fid ~bw:demand ~exp_time ~now with
          | `Rejected -> Denied { available = Bandwidth.of_bps (headroom t egress ~now) }
          | `Admitted ->
              let e =
                { egress; fid; bw = Bandwidth.to_bps (Bandwidth.clamp demand); exp_time }
              in
              Ids.Res_ver_tbl.replace entries (key, version) e;
              Expiry.push t.expiry ~at:exp_time (fun () ->
                  match Ids.Res_ver_tbl.find_opt entries (key, version) with
                  | Some e' when e' == e -> Ids.Res_ver_tbl.remove entries (key, version)
                  | _ -> ());
              Granted demand
        end

  let admit_seg (t : t) ~(req : Backend_intf.seg_request) ~now =
    admit_flow t t.seg_entries ~key:req.key ~version:req.version ~egress:req.egress
      ~demand:req.demand ~min_bw:req.min_bw ~exp_time:req.exp_time ~now

  let admit_eer (t : t) ~(req : Backend_intf.eer_request) ~now =
    admit_flow t t.eer_entries ~key:req.key ~version:req.version ~egress:req.egress
      ~demand:req.demand ~min_bw:Bandwidth.zero ~exp_time:req.exp_time ~now

  (* The RESV pass shrinks to the path-wide minimum: tear the tentative
     flow down and re-install it at the smaller bandwidth (which must
     fit — it frees its own headroom first). *)
  let commit_seg (t : t) ~key ~version ~granted =
    match Ids.Res_ver_tbl.find_opt t.seg_entries (key, version) with
    | None -> Error "unknown reservation version"
    | Some e ->
        let g = Bandwidth.to_bps granted in
        if g > e.bw +. 1e-6 then Error "cannot raise grant"
        else begin
          let port = port_for t e.egress in
          Port.remove port ~id:e.fid;
          match
            Port.admit port ~id:e.fid ~bw:granted ~exp_time:e.exp_time
              ~now:t.last_now
          with
          | `Admitted ->
              e.bw <- g;
              Ok ()
          | `Rejected -> Error "shrunk reservation no longer fits"
        end

  let remove (t : t) (entries : res Ids.Res_ver_tbl.t) ~key ~version ~now =
    Expiry.sweep t.expiry ~now;
    t.last_now <- Float.max t.last_now now;
    match Ids.Res_ver_tbl.find_opt entries (key, version) with
    | None -> ()
    | Some e ->
        Port.remove (port_for t e.egress) ~id:e.fid;
        Ids.Res_ver_tbl.remove entries (key, version)

  let remove_seg (t : t) ~key ~version ~now = remove t t.seg_entries ~key ~version ~now
  let remove_eer (t : t) ~key ~version ~now = remove t t.eer_entries ~key ~version ~now

  let granted_of (t : t) (entries : res Ids.Res_ver_tbl.t) ~key ~version =
    match Ids.Res_ver_tbl.find_opt entries (key, version) with
    | Some e when t.last_now < e.exp_time -> Some (Bandwidth.of_bps e.bw)
    | _ -> None

  let seg_granted_of (t : t) ~key ~version = granted_of t t.seg_entries ~key ~version
  let eer_granted_of (t : t) ~key ~version = granted_of t t.eer_entries ~key ~version

  let seg_allocated_on (t : t) ~egress =
    match Ids.Iface_tbl.find_opt t.ports egress with
    | None -> Bandwidth.zero
    | Some port -> Port.committed port ~now:t.last_now

  let eer_allocated_over (_ : t) ~segr:_ = Bandwidth.zero (* no chain tracking *)
  let seg_count (t : t) = Ids.Res_ver_tbl.length t.seg_entries
  let admissions (t : t) = t.admit_calls
  let control_messages (t : t) = t.msgs

  let eer_flow_count (t : t) =
    let keys = Ids.Res_key_tbl.create 64 in
    Ids.Res_ver_tbl.iter
      (fun (key, _) _ -> Ids.Res_key_tbl.replace keys key ())
      t.eer_entries;
    Ids.Res_key_tbl.length keys

  (* Per-port committed bandwidth must equal the sum over the live
     entries pointing at that port, and every entry's flow must still
     classify — RSVP's soft state and our (key, version) index can only
     drift apart through a bookkeeping bug. *)
  let audit (t : t) : string list =
    let errs = ref [] in
    let expected = Ids.Iface_tbl.create 16 in
    let check entries what =
      Ids.Res_ver_tbl.iter
        (fun (key, ver) (e : res) ->
          if t.last_now < e.exp_time then begin
            Ids.Iface_tbl.replace expected e.egress
              (Option.value ~default:0. (Ids.Iface_tbl.find_opt expected e.egress)
              +. e.bw);
            match Port.classify (port_for t e.egress) ~id:e.fid with
            | Some f ->
                if Float.abs (Bandwidth.to_bps f.bw -. e.bw) > 1e-6 then
                  errs :=
                    Fmt.str "%s[%a#%d]: entry %.6g bps, port flow %.6g bps" what
                      Ids.pp_res_key key ver e.bw (Bandwidth.to_bps f.bw)
                    :: !errs
            | None ->
                errs :=
                  Fmt.str "%s[%a#%d]: live entry has no port flow" what Ids.pp_res_key
                    key ver
                  :: !errs
          end)
        entries
    in
    check t.seg_entries "seg";
    check t.eer_entries "eer";
    Ids.Iface_tbl.iter
      (fun egress port ->
        let committed = Bandwidth.to_bps (Port.committed port ~now:t.last_now) in
        let want = Option.value ~default:0. (Ids.Iface_tbl.find_opt expected egress) in
        if Float.abs (committed -. want) > 1e-6 *. Float.max 1. want then
          errs :=
            Fmt.str "port %d: committed %.6g bps, entries sum to %.6g bps" egress
              committed want
            :: !errs;
        let cap = t.share *. Bandwidth.to_bps (port_capacity t egress) in
        if committed > cap +. 1e-6 *. Float.max 1. cap then
          errs :=
            Fmt.str "port %d oversubscribed: %.6g committed > %.6g capacity" egress
              committed cap
            :: !errs)
      t.ports;
    !errs

  let obs_snapshot (t : t) =
    Backend_intf.standard_snapshot ~name ~seg_count:(seg_count t)
      ~eer_flow_count:(eer_flow_count t) ~admissions:t.admit_calls
      ~control_messages:t.msgs

  (** Make the port state and the entry index disagree so tests can
      verify that {!audit} detects it. Never call outside tests. *)
  let corrupt_for_test (t : t) =
    let any = ref None in
    Ids.Res_ver_tbl.iter
      (fun _ e -> if Option.is_none !any then any := Some e)
      t.seg_entries;
    match !any with
    | Some e -> Port.remove (port_for t e.egress) ~id:e.fid
    | None ->
        (* No entries: install a phantom flow that the index ignores. *)
        ignore
          (Port.admit (port_for t 1) ~id:{ src = -1; dst = -1 }
             ~bw:(Bandwidth.of_bps 1.) ~exp_time:Float.max_float ~now:t.last_now)
end

let factory : Backend_intf.factory =
  {
    label = "intserv";
    make =
      (fun ~capacity ?share () ->
        Backend_intf.Instance ((module B), B.create ~capacity ?share ()));
  }
