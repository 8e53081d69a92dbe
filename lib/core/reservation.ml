(** Reservation state: segment reservations (SegRs) and end-to-end
    reservations (EERs), with the versioning and renewal semantics of
    §4.2.

    - SegRs are intermediate-term AS-to-AS reservations (≈5 minutes).
      Only one version is {e active} at a time; a renewal creates a
      {e pending} version that must be activated by an explicit request,
      so ASes control the switch instant and no over-allocation with
      EERs can occur.
    - EERs are short-term host-to-host reservations (16 s). Multiple
      versions of an EER may be valid simultaneously for seamless
      renewal; monitoring maps all versions of an EER to the same flow,
      so concurrent versions grant the {e maximum}, not the sum, of
      their bandwidths. EERs expire automatically and cannot be removed
      early. *)

open Colibri_types

(** Default validity periods from the paper. *)
let segr_lifetime : Timebase.t = 300. (* ≈ five minutes (§3.3) *)

let eer_lifetime : Timebase.t = 16. (* fixed EER validity (§3.3) *)

type seg_kind = Up | Down | Core

let seg_kind_of_segment : Segments.kind -> seg_kind = function
  | Segments.Up -> Up
  | Segments.Down -> Down
  | Segments.Core -> Core

let pp_seg_kind ppf = function
  | Up -> Fmt.string ppf "up"
  | Down -> Fmt.string ppf "down"
  | Core -> Fmt.string ppf "core"

type version = { version : int; bw : Bandwidth.t; exp_time : Timebase.t }

let version_valid (v : version) ~(now : Timebase.t) = now < v.exp_time

(** A segment reservation as stored at each on-path AS and at the
    initiator. *)
type segr = {
  key : Ids.res_key;
  kind : seg_kind;
  path : Path.t;
  mutable active : version option;
  mutable pending : version option;
  mutable tokens : bytes list;
      (** At the initiator only: the per-AS tokens of Eq. (3) returned
          in the setup response (source first). Empty elsewhere. *)
  mutable allowed_ases : Ids.Asn_set.t option;
      (** Whitelist of ASes allowed to build EERs over this SegR when
          it is shared (Appendix C); [None] = no restriction set. *)
}

(** Bandwidth available on a SegR right now: its active version (a
    pending version holds no bandwidth until activated). *)
let segr_bw (s : segr) ~(now : Timebase.t) : Bandwidth.t =
  match s.active with
  | Some v when version_valid v ~now -> v.bw
  | _ -> Bandwidth.zero

let segr_expired (s : segr) ~now =
  (match s.active with Some v -> not (version_valid v ~now) | None -> true)
  && match s.pending with Some v -> not (version_valid v ~now) | None -> true

(** Activate the pending version (§4.2): the pending version becomes
    the single active one. Fails if there is no valid pending
    version. *)
let activate (s : segr) ~(now : Timebase.t) : (unit, string) result =
  match s.pending with
  | Some v when version_valid v ~now ->
      s.active <- Some v;
      s.pending <- None;
      Ok ()
  | Some _ -> Error "pending version already expired"
  | None -> Error "no pending version"

(** An end-to-end reservation as stored at the source AS (gateway +
    CServ); on-path ASes keep only accounting aggregates, not per-EER
    state (that is the point of the architecture). *)
type eer = {
  key : Ids.res_key;
  path : Path.t;
  src_host : Ids.host;
  dst_host : Ids.host;
  segr_keys : Ids.res_key list; (* the 1–3 SegRs the EER was built over *)
  mutable versions : version list; (* newest first; expired pruned lazily *)
}

let prune_eer (e : eer) ~now =
  e.versions <- List.filter (fun v -> version_valid v ~now) e.versions

(** All currently valid versions, newest (highest version number)
    first. *)
let eer_valid_versions (e : eer) ~now : version list =
  prune_eer e ~now;
  List.sort (fun a b -> Int.compare b.version a.version) e.versions

(** The bandwidth the EER's holder may use now: the maximum over valid
    versions (§4.8 — versions share one monitored flow). *)
let eer_bw (e : eer) ~now : Bandwidth.t =
  List.fold_left (fun acc v -> Bandwidth.max acc v.bw) Bandwidth.zero
    (eer_valid_versions e ~now)

let eer_expired (e : eer) ~now = List.is_empty (eer_valid_versions e ~now)

(** Latest valid version — the one the gateway stamps into packets. *)
let eer_current_version (e : eer) ~now : version option =
  match eer_valid_versions e ~now with [] -> None | v :: _ -> Some v

(** Add a version from a successful setup/renewal response. Version
    numbers must increase. *)
let add_eer_version (e : eer) (v : version) : (unit, string) result =
  if List.exists (fun x -> x.version >= v.version) e.versions then
    Error "version number must increase"
  else begin
    e.versions <- v :: e.versions;
    Ok ()
  end

let res_info_of_segr (s : segr) (v : version) : Packet.res_info =
  {
    src_as = s.key.src_as;
    res_id = s.key.res_id;
    bw = v.bw;
    exp_time = v.exp_time;
    version = v.version;
  }

let res_info_of_eer (e : eer) (v : version) : Packet.res_info =
  {
    src_as = e.key.src_as;
    res_id = e.key.res_id;
    bw = v.bw;
    exp_time = v.exp_time;
    version = v.version;
  }

let eer_info_of_eer (e : eer) : Packet.eer_info =
  { src_host = e.src_host; dst_host = e.dst_host }
