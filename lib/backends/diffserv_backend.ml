(** DiffServ admission backend: class-based provisioning behind the
    {!Backend_intf.S} contract — the {e no-admission-control}
    counterpoint (§1, §8).

    DiffServ has no per-reservation signaling: sources mark packets
    with a class and every hop schedules by class. The wrapper
    therefore grants every request in full, pays {e zero} control
    messages, and merely accounts who promised what. Because nothing
    polices aggregate demand, the booked bandwidth on an egress may
    exceed the link — [capacity_bound_enforced = false], and the bench's
    [utilization] column shows the resulting oversubscription, which is
    exactly the failure mode reservation systems exist to remove. *)

open Colibri_types

type entry = {
  egress : Ids.iface;
  mutable bw : float; (* bps *)
  exp_time : Timebase.t;
  mutable removed : bool;
}

module B : Backend_intf.S = struct
  type t = {
    capacity : Ids.iface -> Bandwidth.t;
    share : float;
    booked : float Ids.Iface_tbl.t; (* Σ live promises per egress *)
    seg_entries : entry Ids.Res_ver_tbl.t;
    eer_entries : entry Ids.Res_ver_tbl.t;
    expiry : Expiry.t;
    mutable admit_calls : int;
  }

  let name = "diffserv"
  let commit_required = false (* nothing to commit: no signaling *)
  let capacity_bound_enforced = false

  let create ~capacity ?(share = 0.80) () =
    {
      capacity;
      share;
      booked = Ids.Iface_tbl.create 16;
      seg_entries = Ids.Res_ver_tbl.create 256;
      eer_entries = Ids.Res_ver_tbl.create 1024;
      expiry = Expiry.create ();
      admit_calls = 0;
    }

  let add_booked (t : t) (egress : Ids.iface) dv =
    let v =
      Bandwidth.saturating_add
        (Option.value ~default:0. (Ids.Iface_tbl.find_opt t.booked egress))
        dv
    in
    if v <= 1e-9 then Ids.Iface_tbl.remove t.booked egress
    else Ids.Iface_tbl.replace t.booked egress v

  let release (t : t) (entries : entry Ids.Res_ver_tbl.t) kv (e : entry) =
    if not e.removed then begin
      e.removed <- true;
      add_booked t e.egress (-.e.bw);
      Ids.Res_ver_tbl.remove entries kv
    end

  let admit (t : t) (entries : entry Ids.Res_ver_tbl.t) ~key ~version ~egress
      ~(demand : Bandwidth.t) ~exp_time ~now : Backend_intf.decision =
    Expiry.sweep t.expiry ~now;
    t.admit_calls <- t.admit_calls + 1;
    match Ids.Res_ver_tbl.find_opt entries (key, version) with
    | Some e -> Granted (Bandwidth.of_bps e.bw) (* retransmission *)
    | None ->
        (* Class-based networks accept everything; congestion shows up
           in the data plane, not at admission. Everything except an
           unrepresentable magnitude: the booked ledger must stay
           finite even for the no-admission-control discipline. *)
        let e =
          {
            egress;
            bw = Bandwidth.to_bps (Bandwidth.clamp demand);
            exp_time;
            removed = false;
          }
        in
        Ids.Res_ver_tbl.replace entries (key, version) e;
        add_booked t egress e.bw;
        Expiry.push t.expiry ~at:exp_time (fun () ->
            match Ids.Res_ver_tbl.find_opt entries (key, version) with
            | Some e' when e' == e -> release t entries (key, version) e
            | _ -> ());
        Granted demand

  let admit_seg (t : t) ~(req : Backend_intf.seg_request) ~now =
    admit t t.seg_entries ~key:req.key ~version:req.version ~egress:req.egress
      ~demand:req.demand ~exp_time:req.exp_time ~now

  let admit_eer (t : t) ~(req : Backend_intf.eer_request) ~now =
    admit t t.eer_entries ~key:req.key ~version:req.version ~egress:req.egress
      ~demand:req.demand ~exp_time:req.exp_time ~now

  let commit_seg (t : t) ~key ~version ~granted =
    match Ids.Res_ver_tbl.find_opt t.seg_entries (key, version) with
    | None -> Error "unknown reservation version"
    | Some e ->
        let g = Bandwidth.to_bps granted in
        if g > e.bw +. 1e-6 then Error "cannot raise grant"
        else begin
          add_booked t e.egress (g -. e.bw);
          e.bw <- g;
          Ok ()
        end

  let remove_kind (t : t) entries ~key ~version ~now =
    Expiry.sweep t.expiry ~now;
    match Ids.Res_ver_tbl.find_opt entries (key, version) with
    | Some e -> release t entries (key, version) e
    | None -> ()

  let remove_seg (t : t) ~key ~version ~now = remove_kind t t.seg_entries ~key ~version ~now
  let remove_eer (t : t) ~key ~version ~now = remove_kind t t.eer_entries ~key ~version ~now

  let granted_of (entries : entry Ids.Res_ver_tbl.t) ~key ~version =
    Option.map
      (fun e -> Bandwidth.of_bps e.bw)
      (Ids.Res_ver_tbl.find_opt entries (key, version))

  let seg_granted_of (t : t) ~key ~version = granted_of t.seg_entries ~key ~version
  let eer_granted_of (t : t) ~key ~version = granted_of t.eer_entries ~key ~version

  let seg_allocated_on (t : t) ~egress =
    Bandwidth.of_bps (Option.value ~default:0. (Ids.Iface_tbl.find_opt t.booked egress))

  let eer_allocated_over (_ : t) ~segr:_ = Bandwidth.zero (* no chain tracking *)
  let seg_count (t : t) = Ids.Res_ver_tbl.length t.seg_entries
  let admissions (t : t) = t.admit_calls
  let control_messages (_ : t) = 0 (* the defining property *)

  let eer_flow_count (t : t) =
    let keys = Ids.Res_key_tbl.create 64 in
    Ids.Res_ver_tbl.iter
      (fun (key, _) _ -> Ids.Res_key_tbl.replace keys key ())
      t.eer_entries;
    Ids.Res_key_tbl.length keys

  let audit (t : t) : string list =
    let errs = ref [] in
    let expected = Ids.Iface_tbl.create 16 in
    let fold what entries =
      Ids.Res_ver_tbl.iter
        (fun (key, ver) (e : entry) ->
          if e.removed then
            errs :=
              Fmt.str "%s[%a#%d]: removed entry still in table" what Ids.pp_res_key key
                ver
              :: !errs;
          Ids.Iface_tbl.replace expected e.egress
            (Option.value ~default:0. (Ids.Iface_tbl.find_opt expected e.egress) +. e.bw))
        entries
    in
    fold "seg" t.seg_entries;
    fold "eer" t.eer_entries;
    let check egress stored =
      let want = Option.value ~default:0. (Ids.Iface_tbl.find_opt expected egress) in
      if Float.abs (stored -. want) > 1e-6 *. Float.max 1. want then
        errs :=
          Fmt.str "booked[%d]: stored %.6g bps, entries sum to %.6g bps" egress stored
            want
          :: !errs
    in
    Ids.Iface_tbl.iter check t.booked;
    Ids.Iface_tbl.iter
      (fun egress _ ->
        if not (Ids.Iface_tbl.mem t.booked egress) then check egress 0.)
      expected;
    !errs

  let obs_snapshot (t : t) =
    Backend_intf.standard_snapshot ~name ~seg_count:(seg_count t)
      ~eer_flow_count:(eer_flow_count t) ~admissions:t.admit_calls ~control_messages:0

  (** Skew the booked aggregate so tests can verify that {!audit}
      detects corruption. Never call outside tests. *)
  let corrupt_for_test (t : t) = add_booked t Ids.local_iface 1.0e6
end

let factory : Backend_intf.factory =
  {
    label = "diffserv";
    make =
      (fun ~capacity ?share () ->
        Backend_intf.Instance ((module B), B.create ~capacity ?share ()));
  }
