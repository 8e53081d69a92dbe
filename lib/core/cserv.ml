(** The Colibri service (CServ, §3.2): one per AS, handling all
    control-plane tasks — admission of SegRs and EERs, renewal and
    activation, bookkeeping of reservations traversing the AS, the
    registry of shareable SegRs (Appendix C), and the
    DRKey-based authentication of every control-plane message (§4.5).

    The CServ is deliberately transport-agnostic: forward/backward
    handlers process one hop of a request, and an orchestration layer
    ({!Deployment}) moves messages between ASes. This mirrors the
    paper's evaluation, which measures the admission processing time
    inside a single service, "disregarding propagation delays" (§6.1). *)

open Colibri_types
open Colibri_topology
module Backend = Backends.Backend_intf

type role = Source | Transit | Transfer | Destination
(** AS types for EER processing (§4.1). *)

(** Intra-AS admission policy for EERs (§4.7): source and destination
    ASes have the business relationship with their hosts and are free
    to define local rules. *)
type policy = {
  max_eer_bw : Bandwidth.t; (* per-EER cap for own customers *)
  accept_outgoing : Packet.eer_info -> Bandwidth.t -> bool;
  accept_incoming : Packet.eer_info -> Bandwidth.t -> bool;
      (* destination-side acceptance, standing in for the host's
         explicit accept (§4.4) *)
}

let default_policy =
  {
    max_eer_bw = Bandwidth.of_gbps 10.;
    accept_outgoing = (fun _ _ -> true);
    accept_incoming = (fun _ _ -> true);
  }

(** A SegR as known to an on-path AS, with its local hop. *)
type transit_segr = {
  segr : Reservation.segr;
  ingress : Ids.iface;
  egress : Ids.iface;
}

(* Admission-outcome accounting (DESIGN.md §7): grants and denials per
   reservation class, plus a per-source-AS denial family over the keyed
   Ids tables. Every family carries a [backend] label so snapshots
   split outcomes per admission discipline (DESIGN.md §12). *)
type metrics = {
  m_seg_granted : Obs.Counter.t;
  m_seg_denied : Obs.Counter.t;
  m_eer_granted : Obs.Counter.t;
  m_eer_denied : Obs.Counter.t;
  m_misbehavior : Obs.Counter.t;
  m_denied_by_src : Obs.Asn_counters.t;
}

type t = {
  asn : Ids.asn;
  clock : Timebase.clock;
  key_server : Drkey.Key_server.t;
  drkey_cache : Drkey.Cache.t;
  mutable fetch_remote_key : Ids.asn -> Drkey.as_key;
      (* round trip to the fast AS's key server; wired by the deployment *)
  backend : Backend.instance; (* the pluggable admission discipline *)
  transit_segrs : transit_segr Ids.Res_key_tbl.t;
  own_segrs : Reservation.segr Ids.Res_key_tbl.t;
  own_eers : Reservation.eer Ids.Res_key_tbl.t;
  shared : Ids.res_key list Ids.Asn_tbl.t;
      (* keys of shared SegRs by destination, most recent first: the
         ones registered here, and at a leaf the down-SegRs ending at
         it (Appendix C) *)
  mutable next_res_id : int;
  renewal_last : Timebase.t Ids.Res_key_tbl.t; (* renewal rate limiting *)
  renewal_min_interval : Timebase.t;
  policy : policy;
  mutable denied_sources : Ids.Asn_set.t;
      (* source ASes with confirmed misbehavior: future reservations
         refused (§4.8 "Policing") *)
  obs : Obs.Registry.t;
  metrics : metrics;
}

let create ?(policy = default_policy) ?(renewal_min_interval = 1.0) ?rng
    ?(registry = Obs.Registry.create ()) ?(backend = Backends.All.ntube)
    ~(clock : Timebase.clock) ~(topo : Topology.t) (asn : Ids.asn) : t =
  let key_server = Drkey.Key_server.create ?rng ~clock asn in
  let backend =
    backend.Backend.make
      ~capacity:(fun iface -> Topology.egress_capacity topo asn iface)
      ()
  in
  let bl = [ ("backend", Backend.name backend) ] in
  let metrics =
    {
      m_seg_granted =
        Obs.Registry.counter registry (Obs.labeled "cserv_seg_granted_total" bl);
      m_seg_denied =
        Obs.Registry.counter registry (Obs.labeled "cserv_seg_denied_total" bl);
      m_eer_granted =
        Obs.Registry.counter registry (Obs.labeled "cserv_eer_granted_total" bl);
      m_eer_denied =
        Obs.Registry.counter registry (Obs.labeled "cserv_eer_denied_total" bl);
      m_misbehavior =
        Obs.Registry.counter registry
          (Obs.labeled "cserv_misbehavior_reports_total" bl);
      m_denied_by_src =
        Obs.Asn_counters.create ~extra:bl registry ~name:"cserv_denied_total"
          ~label:"src_as";
    }
  in
  {
    asn;
    clock;
    key_server;
    drkey_cache = Drkey.Cache.create ~clock asn;
    fetch_remote_key =
      (fun _ -> failwith "Cserv.fetch_remote_key: not wired to a deployment");
    backend;
    transit_segrs = Ids.Res_key_tbl.create 1024;
    own_segrs = Ids.Res_key_tbl.create 64;
    own_eers = Ids.Res_key_tbl.create 256;
    shared = Ids.Asn_tbl.create 64;
    next_res_id = 1;
    renewal_last = Ids.Res_key_tbl.create 256;
    renewal_min_interval;
    policy;
    denied_sources = Ids.Asn_set.empty;
    obs = registry;
    metrics;
  }

let asn (t : t) = t.asn
let key_server (t : t) = t.key_server
let metrics (t : t) = t.obs

(* Count one admission verdict; denials also feed the per-source-AS
   family so a misbehaving or misconfigured neighbor is visible by
   name in the snapshot. *)
let account_verdict (t : t) ~(granted : Obs.Counter.t) ~(denied : Obs.Counter.t)
    ~(src : Ids.asn) (verdict : [ `Continue of Bandwidth.t | `Deny of Protocol.deny_reason ]) =
  (match verdict with
  | `Continue _ -> Obs.Counter.incr granted
  | `Deny _ ->
      Obs.Counter.incr denied;
      Obs.Counter.incr (Obs.Asn_counters.get t.metrics.m_denied_by_src src));
  verdict

(** The AS-specific secret [K_i] for hop tokens/authenticators,
    derived from the current DRKey secret value. *)
let hop_secret (t : t) : Hvf.as_secret =
  let ak = Drkey.Key_server.derive t.key_server ~slow:t.asn in
  Hvf.as_secret_of_material (Drkey.protocol_key ak ~protocol:"colibri-hop")

(* DRKey material for control traffic between this AS and [src]:
   fast side = this AS. *)
let control_key_fast (t : t) ~(src : Ids.asn) : Crypto.Cmac.key =
  Drkey.control_mac_key (Drkey.Key_server.derive t.key_server ~slow:src)

(* Slow side: this AS is [src]; fetch (cached) the key of [fast]. *)
let as_key_slow (t : t) ~(fast : Ids.asn) : Drkey.as_key =
  if Ids.equal_asn fast t.asn then Drkey.Key_server.derive t.key_server ~slow:t.asn
  else Drkey.Cache.get t.drkey_cache ~fast ~fetch:(fun () -> t.fetch_remote_key fast)

let control_key_slow (t : t) ~(fast : Ids.asn) : Crypto.Cmac.key =
  Drkey.control_mac_key (as_key_slow t ~fast)

let next_res_id (t : t) : Ids.res_id =
  let id = t.next_res_id in
  t.next_res_id <- id + 1;
  id

let find_hop (path : Path.t) (asn : Ids.asn) : Path.hop option =
  List.find_opt (fun (h : Path.hop) -> Ids.equal_asn h.asn asn) path

(* ---------------- Segment reservations ---------------- *)

(** Build an authenticated SegR setup/renewal request at the initiator.
    [res_id = None] allocates a fresh id (setup); [Some key] renews the
    existing reservation with the next version number. *)
let make_seg_request (t : t) ~(path : Path.t) ~(kind : Reservation.seg_kind)
    ~(max_bw : Bandwidth.t) ~(min_bw : Bandwidth.t) ~(renew : Ids.res_key option) :
    (Protocol.seg_request * Protocol.request_auth, string) result =
  let now = t.clock () in
  match renew with
  | Some key when not (Ids.Res_key_tbl.mem t.own_segrs key) ->
      Error "renewal of unknown SegR"
  | _ ->
      let res_id, version, renewal =
        match renew with
        | None -> (next_res_id t, 1, false)
        | Some key ->
            let s = Ids.Res_key_tbl.find t.own_segrs key in
            let latest =
              List.fold_left
                (fun acc -> function
                  | Some (v : Reservation.version) -> max acc v.version
                  | None -> acc)
                0
                [ s.active; s.pending ]
            in
            (key.res_id, latest + 1, true)
      in
      let req : Protocol.seg_request =
        {
          res_info =
            {
              src_as = t.asn;
              res_id;
              bw = max_bw;
              exp_time = now +. Reservation.segr_lifetime;
              version;
            };
          min_bw;
          kind;
          path;
          renewal;
        }
      in
      let digest = Protocol.seg_request_digest req in
      let auth =
        Protocol.authenticate_request ~digest
          ~key_for:(fun a -> control_key_slow t ~fast:a)
          ~ases:(Path.ases path)
      in
      Ok (req, auth)

(** Forward-pass processing of a SegReq at one on-path AS: verify the
    source's MAC, run the admission algorithm, and tentatively record
    the grant. *)
let handle_seg_request_forward (t : t) ~(req : Protocol.seg_request)
    ~(auth : Protocol.request_auth) :
    [ `Continue of Bandwidth.t | `Deny of Protocol.deny_reason ] =
  let now = t.clock () in
  let src = req.res_info.src_as in
  account_verdict t ~granted:t.metrics.m_seg_granted ~denied:t.metrics.m_seg_denied
    ~src
  @@
  if Ids.Asn_set.mem src t.denied_sources then `Deny Protocol.Policy_refused
  else begin
    let digest = Protocol.seg_request_digest req in
    let key = control_key_fast t ~src in
    if not (Protocol.verify_request ~digest ~asn:t.asn ~key ~auth) then
      `Deny Protocol.Bad_authentication
    else begin
      match find_hop req.path t.asn with
      | None -> `Deny Protocol.Bad_authentication
      | Some hop -> (
          let rkey : Ids.res_key = { src_as = src; res_id = req.res_info.res_id } in
          (* Retransmissions of a request this AS already admitted (the
             original reply was lost downstream) are answered from the
             recorded grant inside the backend — [admit_seg] is
             idempotent per (key, version) by contract. *)
          let breq : Backend.seg_request =
            {
              key = rkey;
              version = req.res_info.version;
              src;
              ingress = hop.ingress;
              egress = hop.egress;
              demand = req.res_info.bw;
              min_bw = req.min_bw;
              exp_time = req.res_info.exp_time;
            }
          in
          match Backend.admit_seg t.backend ~req:breq ~now with
          | Backend.Granted bw -> `Continue bw
          | Backend.Denied { available } ->
              `Deny (Protocol.Insufficient_bandwidth { available }))
    end
  end

(** Backward-pass processing: commit the final (path-wide minimum)
    bandwidth, store the reservation version, and emit this AS's token
    (Eq. (3)) authenticated for the initiator. Setup requests activate
    the version immediately; renewals leave it pending until an
    explicit activation (§4.2). *)
let handle_seg_reply_backward (t : t) ~(req : Protocol.seg_request)
    ~(final_bw : Bandwidth.t) : Protocol.reply_hop =
  let src = req.res_info.src_as in
  let rkey : Ids.res_key = { src_as = src; res_id = req.res_info.res_id } in
  (* Per-hop disciplines grant final bandwidths on the forward pass and
     have nothing to commit. *)
  (if Backend.commit_required t.backend then
     match
       Backend.commit_seg t.backend ~key:rkey ~version:req.res_info.version
         ~granted:final_bw
     with
     | Ok () -> ()
     | Error e -> invalid_arg ("Cserv.handle_seg_reply_backward: " ^ e));
  let hop =
    match find_hop req.path t.asn with
    | Some h -> h
    | None -> invalid_arg "Cserv.handle_seg_reply_backward: AS not on path"
  in
  let version : Reservation.version =
    { version = req.res_info.version; bw = final_bw; exp_time = req.res_info.exp_time }
  in
  (* Record / update the local SegR state. *)
  (match Ids.Res_key_tbl.find_opt t.transit_segrs rkey with
  | Some ts ->
      if req.renewal then ts.segr.pending <- Some version
      else ts.segr.active <- Some version
  | None ->
      let segr : Reservation.segr =
        {
          key = rkey;
          kind = req.kind;
          path = req.path;
          active = (if req.renewal then None else Some version);
          pending = (if req.renewal then Some version else None);
          tokens = [];
          allowed_ases = None;
        }
      in
      Ids.Res_key_tbl.replace t.transit_segrs rkey
        { segr; ingress = hop.ingress; egress = hop.egress });
  let final_res_info = { req.res_info with bw = final_bw } in
  let token = Hvf.seg_token (hop_secret t) ~res_info:final_res_info ~hop in
  let digest = Protocol.seg_request_digest req in
  Protocol.make_reply_hop ~digest ~key:(control_key_fast t ~src) ~asn:t.asn
    ~granted:final_bw ~material:token

(** Cleanup after a failed setup: the tentative admission state is
    released ("the ASes clean up their temporary reservations", §3.3). *)
let handle_seg_failure (t : t) ~(req : Protocol.seg_request) =
  let rkey : Ids.res_key =
    { src_as = req.res_info.src_as; res_id = req.res_info.res_id }
  in
  Backend.remove_seg t.backend ~key:rkey ~version:req.res_info.version
    ~now:(t.clock ());
  match Ids.Res_key_tbl.find_opt t.transit_segrs rkey with
  | Some ts ->
      if req.renewal then ts.segr.pending <- None
      else Ids.Res_key_tbl.remove t.transit_segrs rkey
  | None -> ()

(** Process a successful reply at the initiator: verify every hop's
    MAC, store the SegR with its tokens. *)
let process_seg_reply (t : t) ~(req : Protocol.seg_request)
    ~(reply : Protocol.seg_request Protocol.reply) :
    (Reservation.segr, string) result =
  match reply with
  | Protocol.Denied { at; reason } ->
      Error (Fmt.str "denied at %a: %a" Ids.pp_asn at Protocol.pp_deny_reason reason)
  | Protocol.Granted { final_bw; hops } ->
      let digest = Protocol.seg_request_digest req in
      let all_ok =
        List.for_all
          (fun (h : Protocol.reply_hop) ->
            Protocol.verify_reply_hop ~digest
              ~key:(control_key_slow t ~fast:h.asn)
              h)
          hops
        && List.length hops = Path.length req.path
      in
      if not all_ok then Error "reply authentication failed"
      else begin
        let rkey : Ids.res_key =
          { src_as = req.res_info.src_as; res_id = req.res_info.res_id }
        in
        let version : Reservation.version =
          {
            version = req.res_info.version;
            bw = final_bw;
            exp_time = req.res_info.exp_time;
          }
        in
        let tokens = List.map (fun (h : Protocol.reply_hop) -> h.material) hops in
        let segr =
          match Ids.Res_key_tbl.find_opt t.own_segrs rkey with
          | Some s ->
              if req.renewal then s.pending <- Some version else s.active <- Some version;
              s.tokens <- tokens;
              s
          | None ->
              let s : Reservation.segr =
                {
                  key = rkey;
                  kind = req.kind;
                  path = req.path;
                  active = (if req.renewal then None else Some version);
                  pending = (if req.renewal then Some version else None);
                  tokens;
                  allowed_ases = None;
                }
              in
              Ids.Res_key_tbl.replace t.own_segrs rkey s;
              s
        in
        Ok segr
      end

(** Activation of a pending SegR version at one on-path AS (§4.2): the
    pending version becomes active and the superseded version's
    admission share is released. *)
let handle_seg_activation (t : t) ~(key : Ids.res_key) : (unit, string) result =
  match Ids.Res_key_tbl.find_opt t.transit_segrs key with
  | None -> Error "unknown SegR"
  | Some ts -> (
      let old = ts.segr.active in
      match Reservation.activate ts.segr ~now:(t.clock ()) with
      | Error e -> Error e
      | Ok () ->
          (match old with
          | Some v ->
              Backend.remove_seg t.backend ~key ~version:v.version ~now:(t.clock ())
          | None -> ());
          Ok ())

(* ---------------- Registry & dissemination (Appendix C) ------------- *)

(** Record [keys] of shared SegRs ending at [dst]: each moves to the
    front of the list, the last one first, and every key that is not
    [live] is dropped. *)
let record_shared_segrs (t : t) ~(dst : Ids.asn) ~(live : Ids.res_key -> bool)
    (keys : Ids.res_key list) =
  let known = Option.value ~default:[] (Ids.Asn_tbl.find_opt t.shared dst) in
  Ids.Asn_tbl.replace t.shared dst
    (List.filter live
       (List.fold_left
          (fun acc k -> k :: List.filter (fun x -> not (Ids.equal_res_key x k)) acc)
          known keys))

let shared_segrs (t : t) ~(dst : Ids.asn) : Ids.res_key list =
  Option.value ~default:[] (Ids.Asn_tbl.find_opt t.shared dst)

(** Register a SegR (by its initiator) for use by other ASes, with an
    optional whitelist. *)
let register_segr (t : t) ~(key : Ids.res_key) ~(allowed : Ids.Asn_set.t option) :
    (unit, string) result =
  match Ids.Res_key_tbl.find_opt t.own_segrs key with
  | None -> Error "unknown SegR"
  | Some s ->
      s.allowed_ases <- allowed;
      let now = t.clock () in
      record_shared_segrs t ~dst:(Path.destination s.path) [ key ] ~live:(fun k ->
          match Ids.Res_key_tbl.find_opt t.own_segrs k with
          | Some o -> not (Reservation.segr_expired o ~now)
          | None -> false);
      Ok ()

(* The one liveness rule of route lookup and recovery: the active
   version is valid, and [requester] is the initiator or admitted by
   the whitelist. *)
let usable (t : t) ~(requester : Ids.asn) (s : Reservation.segr) : bool =
  (match s.active with
  | Some v -> Reservation.version_valid v ~now:(t.clock ())
  | None -> false)
  &&
  match s.allowed_ases with
  | Some allowed when not (Ids.equal_asn requester t.asn) ->
      Ids.Asn_set.mem requester allowed
  | _ -> true

let live_segr (t : t) ~(requester : Ids.asn) (key : Ids.res_key) :
    Reservation.segr option =
  match Ids.Res_key_tbl.find_opt t.own_segrs key with
  | Some s when usable t ~requester s -> Some s
  | _ -> None

let live_segrs (t : t) ~(requester : Ids.asn) ~(kind : Reservation.seg_kind) :
    Reservation.segr list =
  Ids.Res_key_tbl.fold
    (fun _ (s : Reservation.segr) acc ->
      if s.kind = kind && usable t ~requester s then s :: acc else acc)
    t.own_segrs []

(* ---------------- End-to-end reservations ---------------- *)

(** Renewal rate limiting (§4.2): at most one renewal per
    [renewal_min_interval] per reservation. *)
let renewal_allowed (t : t) ~(key : Ids.res_key) : bool =
  let now = t.clock () in
  match Ids.Res_key_tbl.find_opt t.renewal_last key with
  | Some last when now -. last < t.renewal_min_interval -> false
  | _ ->
      Ids.Res_key_tbl.replace t.renewal_last key now;
      true

(** Build an authenticated EER setup/renewal request. The path must be
    the splice of the given SegRs' paths. *)
let make_eer_request (t : t) ~(path : Path.t) ~(src_host : Ids.host)
    ~(dst_host : Ids.host) ~(bw : Bandwidth.t) ~(segr_keys : Ids.res_key list)
    ~(renew : Ids.res_key option) :
    (Protocol.eer_request * Protocol.request_auth, string) result =
  let now = t.clock () in
  match renew with
  | Some key when not (Ids.Res_key_tbl.mem t.own_eers key) -> Error "renewal of unknown EER"
  | Some key when not (renewal_allowed t ~key) -> Error "renewal rate limited"
  | _ ->
      let res_id, version, renewal =
        match renew with
        | None -> (next_res_id t, 1, false)
        | Some key ->
            let e = Ids.Res_key_tbl.find t.own_eers key in
            let latest =
              List.fold_left (fun acc (v : Reservation.version) -> max acc v.version) 0 e.versions
            in
            (key.res_id, latest + 1, true)
      in
      let req : Protocol.eer_request =
        {
          res_info =
            {
              src_as = t.asn;
              res_id;
              bw;
              exp_time = now +. Reservation.eer_lifetime;
              version;
            };
          eer_info = { src_host; dst_host };
          path;
          segr_keys;
          renewal;
        }
      in
      let digest = Protocol.eer_request_digest req in
      let auth =
        Protocol.authenticate_request ~digest
          ~key_for:(fun a -> control_key_slow t ~fast:a)
          ~ases:(Path.ases path)
      in
      Ok (req, auth)

(* The SegRs from the request that traverse this AS, with their local
   bandwidth, in path order. *)
let local_segrs (t : t) (req : Protocol.eer_request) :
    (Ids.res_key * transit_segr) list =
  List.filter_map
    (fun key ->
      Option.map (fun ts -> (key, ts)) (Ids.Res_key_tbl.find_opt t.transit_segrs key))
    req.segr_keys

(** Forward-pass EER admission at one on-path AS (§4.7). The role is
    derived from the packet: first hop = source AS (policy check),
    last hop = destination AS (policy + destination acceptance),
    otherwise transit/transfer depending on how many of the underlying
    SegRs traverse this AS. *)
let handle_eer_request_forward (t : t) ~(req : Protocol.eer_request)
    ~(auth : Protocol.request_auth) :
    [ `Continue of Bandwidth.t | `Deny of Protocol.deny_reason ] =
  let now = t.clock () in
  let src = req.res_info.src_as in
  account_verdict t ~granted:t.metrics.m_eer_granted ~denied:t.metrics.m_eer_denied
    ~src
  @@
  if Ids.Asn_set.mem src t.denied_sources then `Deny Protocol.Policy_refused
  else begin
    let digest = Protocol.eer_request_digest req in
    let key = control_key_fast t ~src in
    if not (Protocol.verify_request ~digest ~asn:t.asn ~key ~auth) then
      `Deny Protocol.Bad_authentication
    else begin
      match find_hop req.path t.asn with
      | None -> `Deny Protocol.Bad_authentication
      | Some hop -> (
          let is_source = Ids.equal_asn (Path.source req.path) t.asn in
          let is_dest = Ids.equal_asn (Path.destination req.path) t.asn in
          (* Policy checks at the edges. *)
          let policy_ok =
            (not is_source
            || Bandwidth.(req.res_info.bw <= t.policy.max_eer_bw)
               && t.policy.accept_outgoing req.eer_info req.res_info.bw)
            && (not is_dest || t.policy.accept_incoming req.eer_info req.res_info.bw)
          in
          if not policy_ok then
            `Deny (if is_dest then Protocol.Destination_refused else Protocol.Policy_refused)
          else begin
            let local = local_segrs t req in
            if List.is_empty local then
              `Deny
                (Protocol.Unknown_segr
                   (match req.segr_keys with
                   | k :: _ -> k
                   | [] -> { src_as = src; res_id = 0 }))
            else begin
              (* A SegR that expired under the requester: signal it so
                 the source looks its routes up again (Appendix C). *)
              match
                List.find_opt
                  (fun (_, ts) ->
                    not (Bandwidth.is_positive (Reservation.segr_bw ts.segr ~now)))
                  local
              with
              | Some (k, _) -> `Deny (Protocol.Expired_segr k)
              | None -> (
                  let segrs =
                    List.map (fun (k, ts) -> (k, Reservation.segr_bw ts.segr ~now)) local
                  in
                  (* Transfer AS between an up- and a core-SegR shares the
                     core bandwidth between competing up-SegRs (§4.7). *)
                  let via_up =
                    match local with
                    | [ (up_key, up_ts); (core_key, core_ts) ]
                      when up_ts.segr.kind = Reservation.Up
                           && core_ts.segr.kind = Reservation.Core ->
                        Some (core_key, up_key, Reservation.segr_bw core_ts.segr ~now)
                    | _ -> None
                  in
                  let rkey : Ids.res_key =
                    { src_as = src; res_id = req.res_info.res_id }
                  in
                  (* Retransmissions answer from the recorded grant
                     inside the backend ([admit_eer] is idempotent per
                     (key, version)); renewals are flexible — an AS can
                     grant less than requested, re-negotiating the
                     bandwidth without interrupting service (§4.2),
                     while setups are strict. *)
                  let breq : Backend.eer_request =
                    {
                      key = rkey;
                      version = req.res_info.version;
                      segrs;
                      via_up;
                      ingress = hop.ingress;
                      egress = hop.egress;
                      demand = req.res_info.bw;
                      renewal = req.renewal;
                      exp_time = req.res_info.exp_time;
                    }
                  in
                  match Backend.admit_eer t.backend ~req:breq ~now with
                  | Backend.Granted bw -> `Continue bw
                  | Backend.Denied { available } ->
                      `Deny (Protocol.Insufficient_bandwidth { available }))
            end
          end)
    end
  end

(** Backward-pass EER processing: compute the hop authenticator σ_i
    (Eq. (4)) over the final reservation data and seal it for the
    source AS (Eq. (5)). *)
let handle_eer_reply_backward (t : t) ~(req : Protocol.eer_request)
    ~(final_bw : Bandwidth.t) : Protocol.reply_hop =
  let src = req.res_info.src_as in
  let hop =
    match find_hop req.path t.asn with
    | Some h -> h
    | None -> invalid_arg "Cserv.handle_eer_reply_backward: AS not on path"
  in
  let final_res_info = { req.res_info with bw = final_bw } in
  let sigma = Hvf.hop_auth (hop_secret t) ~res_info:final_res_info ~eer_info:req.eer_info ~hop in
  let rkey : Ids.res_key = { src_as = src; res_id = req.res_info.res_id } in
  let aead = Drkey.hopauth_aead_key (Drkey.Key_server.derive t.key_server ~slow:src) in
  let sealed =
    Hvf.seal_sigma ~aead ~res_key:rkey ~version:req.res_info.version sigma
  in
  let digest = Protocol.eer_request_digest req in
  Protocol.make_reply_hop ~digest ~key:(control_key_fast t ~src) ~asn:t.asn
    ~granted:final_bw ~material:sealed

let handle_eer_failure (t : t) ~(req : Protocol.eer_request) =
  let rkey : Ids.res_key =
    { src_as = req.res_info.src_as; res_id = req.res_info.res_id }
  in
  Backend.remove_eer t.backend ~key:rkey ~version:req.res_info.version
    ~now:(t.clock ())

(** Process a successful EER reply at the source AS: verify every
    hop's MAC, unseal the σ_i, and return the reservation together
    with the per-hop authenticators for the gateway. *)
let process_eer_reply (t : t) ~(req : Protocol.eer_request)
    ~(reply : Protocol.eer_request Protocol.reply) :
    (Reservation.eer * Reservation.version * bytes list, string) result =
  match reply with
  | Protocol.Denied { at; reason } ->
      Error (Fmt.str "denied at %a: %a" Ids.pp_asn at Protocol.pp_deny_reason reason)
  | Protocol.Granted { final_bw; hops } ->
      let digest = Protocol.eer_request_digest req in
      if List.length hops <> Path.length req.path then Error "wrong hop count in reply"
      else begin
        let rkey : Ids.res_key =
          { src_as = req.res_info.src_as; res_id = req.res_info.res_id }
        in
        let unseal (h : Protocol.reply_hop) : bytes option =
          if
            not
              (Protocol.verify_reply_hop ~digest
                 ~key:(control_key_slow t ~fast:h.asn)
                 h)
          then None
          else
            let aead = Drkey.hopauth_aead_key (as_key_slow t ~fast:h.asn) in
            Hvf.open_sigma ~aead ~res_key:rkey ~version:req.res_info.version h.material
        in
        let sigmas = List.map unseal hops in
        if List.exists Option.is_none sigmas then
          Error "reply authentication or unsealing failed"
        else begin
          let sigmas = List.filter_map Fun.id sigmas in
          let version : Reservation.version =
            {
              version = req.res_info.version;
              bw = final_bw;
              exp_time = req.res_info.exp_time;
            }
          in
          let eer =
            match Ids.Res_key_tbl.find_opt t.own_eers rkey with
            | Some e -> e
            | None ->
                let e : Reservation.eer =
                  {
                    key = rkey;
                    path = req.path;
                    src_host = req.eer_info.src_host;
                    dst_host = req.eer_info.dst_host;
                    segr_keys = req.segr_keys;
                    versions = [];
                  }
                in
                Ids.Res_key_tbl.replace t.own_eers rkey e;
                e
          in
          match Reservation.add_eer_version eer version with
          | Error e -> Error e
          | Ok () -> Ok (eer, version, sigmas)
        end
      end

(* ---------------- Policing hooks (§4.8) ---------------- *)

(** Report of confirmed overuse from a border router: deny future
    reservations from the offending source AS. *)
let report_misbehavior (t : t) ~(src : Ids.asn) =
  Obs.Counter.incr t.metrics.m_misbehavior;
  t.denied_sources <- Ids.Asn_set.add src t.denied_sources

let is_denied (t : t) ~(src : Ids.asn) = Ids.Asn_set.mem src t.denied_sources

(* ---------------- Introspection ---------------- *)

let transit_segr (t : t) (key : Ids.res_key) = Ids.Res_key_tbl.find_opt t.transit_segrs key
let own_segr (t : t) (key : Ids.res_key) = Ids.Res_key_tbl.find_opt t.own_segrs key
let own_eer (t : t) (key : Ids.res_key) = Ids.Res_key_tbl.find_opt t.own_eers key
let backend (t : t) = t.backend
let drkey_cache (t : t) = t.drkey_cache
let set_fetch_remote_key (t : t) f = t.fetch_remote_key <- f

(** Consistency audit of the admission backend, messages prefixed with
    this AS and the backend name — the chaos suite's leak detector
    after crashes and exhausted retries. [[]] means clean. *)
let audit (t : t) : string list =
  List.map
    (fun m -> Fmt.str "%a/%s: %s" Ids.pp_asn t.asn (Backend.name t.backend) m)
    (Backend.audit t.backend)
