(** The Colibri service (CServ, §3.2): one per AS, handling all
    control-plane tasks — admission of SegRs and EERs, renewal and
    activation, bookkeeping of reservations traversing the AS, the
    registry of shareable SegRs (Appendix C), and the
    DRKey-based authentication of every control-plane message (§4.5).

    The CServ is transport-agnostic: forward/backward handlers process
    one hop of a request, and an orchestration layer ({!Deployment})
    moves messages between ASes — mirroring the paper's evaluation,
    which measures admission processing inside a single service. *)

open Colibri_types
open Colibri_topology

type t

(** AS types for EER processing (§4.1). *)
type role = Source | Transit | Transfer | Destination

(** Intra-AS admission policy for EERs (§4.7): source and destination
    ASes have the business relationship with their hosts and are free
    to define local rules. [accept_incoming] stands in for the
    destination host's explicit accept (§4.4). *)
type policy = {
  max_eer_bw : Bandwidth.t;
  accept_outgoing : Packet.eer_info -> Bandwidth.t -> bool;
  accept_incoming : Packet.eer_info -> Bandwidth.t -> bool;
}

val default_policy : policy

(** A SegR as known to an on-path AS, with its local hop. *)
type transit_segr = {
  segr : Reservation.segr;
  ingress : Ids.iface;
  egress : Ids.iface;
}

val create :
  ?policy:policy ->
  ?renewal_min_interval:Timebase.t ->
  ?rng:Random.State.t ->
  ?registry:Obs.Registry.t ->
  ?backend:Backends.Backend_intf.factory ->
  clock:Timebase.clock ->
  topo:Topology.t ->
  Ids.asn ->
  t
(** [registry] receives the CServ's admission-outcome metrics
    (DESIGN.md §7); a private registry is created when omitted.
    [backend] selects the admission discipline (DESIGN.md §12); the
    default is the N-Tube reference backend, [Backends.All.ntube]. *)

val asn : t -> Ids.asn
val key_server : t -> Drkey.Key_server.t

val metrics : t -> Obs.Registry.t
(** The CServ's metric registry: [cserv_seg_granted_total] /
    [cserv_seg_denied_total] / [cserv_eer_granted_total] /
    [cserv_eer_denied_total] admission outcomes,
    [cserv_misbehavior_reports_total], and the per-source-AS
    [cserv_denied_total] family. Every family carries a
    [backend="…"] label naming the admission discipline, so merged
    snapshots split outcomes per backend. *)

val hop_secret : t -> Hvf.as_secret
(** The AS-specific secret [K_i] for hop tokens/authenticators,
    derived from the current DRKey secret value. *)

val next_res_id : t -> Ids.res_id
(** Allocate the next per-source reservation number (§4.3). *)

(** {1 Segment reservations} *)

val make_seg_request :
  t ->
  path:Path.t ->
  kind:Reservation.seg_kind ->
  max_bw:Bandwidth.t ->
  min_bw:Bandwidth.t ->
  renew:Ids.res_key option ->
  (Protocol.seg_request * Protocol.request_auth, string) result
(** Build an authenticated SegR setup ([renew = None]) or renewal
    request at the initiator. *)

val handle_seg_request_forward :
  t ->
  req:Protocol.seg_request ->
  auth:Protocol.request_auth ->
  [ `Continue of Bandwidth.t | `Deny of Protocol.deny_reason ]
(** Forward-pass processing at one on-path AS: verify the source's
    MAC, run the admission algorithm, tentatively record the grant. *)

val handle_seg_reply_backward :
  t -> req:Protocol.seg_request -> final_bw:Bandwidth.t -> Protocol.reply_hop
(** Backward pass: commit the final (path-wide minimum) bandwidth,
    store the reservation version, and emit this AS's Eq. (3) token.
    Setups activate immediately; renewals stay pending until explicit
    activation (§4.2). *)

val handle_seg_failure : t -> req:Protocol.seg_request -> unit
(** Cleanup after a failed setup: release the tentative admission
    state (§3.3). *)

val process_seg_reply :
  t ->
  req:Protocol.seg_request ->
  reply:Protocol.seg_request Protocol.reply ->
  (Reservation.segr, string) result
(** At the initiator: verify every hop's MAC and store the SegR with
    its tokens. *)

val handle_seg_activation : t -> key:Ids.res_key -> (unit, string) result
(** Activate a pending SegR version at one on-path AS; the superseded
    version's admission share is released. *)

(** {1 Registry & dissemination (Appendix C)}

    Only keys are shared. An initiator records which of its SegRs it
    registered, and a leaf keeps the keys of the down-SegRs that end at
    it. A key is resolved at its initiator ([key.src_as]) through
    {!live_segr} on every read, so a lookup always sees the SegR's
    current version and whitelist. *)

val register_segr :
  t -> key:Ids.res_key -> allowed:Ids.Asn_set.t option -> (unit, string) result
(** Register one of this AS's SegRs for use by other ASes, with an
    optional whitelist ([None]: any AS). *)

val shared_segrs : t -> dst:Ids.asn -> Ids.res_key list
(** Keys of shared SegRs ending at [dst], most recently recorded
    first. Expired keys are dropped only when the list is written, so a
    read may still return some; lookups resolve each through
    {!live_segr}. *)

val record_shared_segrs :
  t -> dst:Ids.asn -> live:(Ids.res_key -> bool) -> Ids.res_key list -> unit
(** Record keys of shared SegRs ending at [dst]; each moves to the
    front of {!shared_segrs}, the last one first. Every recorded key
    that is not [live] (at its initiator: no version, active or
    pending, left unexpired) is dropped, so the list tracks the live
    SegRs rather than their history. {!register_segr} records its key
    here; a leaf records the down-SegRs registered for it. *)

val live_segr : t -> requester:Ids.asn -> Ids.res_key -> Reservation.segr option
(** One of this AS's SegRs, if [requester] may build an EER over it
    now: its active version is valid, and [requester] is this AS or
    admitted by its [allowed_ases]. The one liveness rule of route
    lookup and recovery. *)

val live_segrs :
  t -> requester:Ids.asn -> kind:Reservation.seg_kind -> Reservation.segr list
(** This AS's SegRs of one kind that pass {!live_segr} for
    [requester]. *)

(** {1 End-to-end reservations} *)

val renewal_allowed : t -> key:Ids.res_key -> bool
(** Renewal rate limiting (§4.2): at most one renewal per
    [renewal_min_interval] per reservation. Recording side effect:
    a [true] answer counts as the renewal of record. *)

val make_eer_request :
  t ->
  path:Path.t ->
  src_host:Ids.host ->
  dst_host:Ids.host ->
  bw:Bandwidth.t ->
  segr_keys:Ids.res_key list ->
  renew:Ids.res_key option ->
  (Protocol.eer_request * Protocol.request_auth, string) result

val handle_eer_request_forward :
  t ->
  req:Protocol.eer_request ->
  auth:Protocol.request_auth ->
  [ `Continue of Bandwidth.t | `Deny of Protocol.deny_reason ]
(** Forward-pass EER admission (§4.7): policy checks at the edges,
    SegR headroom at transit ASes, proportional core-SegR sharing at
    transfer ASes. Renewals may be granted partially (§4.2). *)

val handle_eer_reply_backward :
  t -> req:Protocol.eer_request -> final_bw:Bandwidth.t -> Protocol.reply_hop
(** Backward pass: compute the hop authenticator σ_i (Eq. (4)) over
    the final reservation data and seal it for the source AS
    (Eq. (5)). *)

val handle_eer_failure : t -> req:Protocol.eer_request -> unit

val process_eer_reply :
  t ->
  req:Protocol.eer_request ->
  reply:Protocol.eer_request Protocol.reply ->
  (Reservation.eer * Reservation.version * bytes list, string) result
(** At the source AS: verify every hop's MAC, unseal the σ_i, and
    return the reservation with the per-hop authenticators for the
    gateway. *)

(** {1 Policing hooks (§4.8)} *)

val report_misbehavior : t -> src:Ids.asn -> unit
(** Confirmed-overuse report from a border router: deny future
    reservations from the offending source AS. *)

val is_denied : t -> src:Ids.asn -> bool

(** {1 Introspection} *)

val transit_segr : t -> Ids.res_key -> transit_segr option
val own_segr : t -> Ids.res_key -> Reservation.segr option
val own_eer : t -> Ids.res_key -> Reservation.eer option
val backend : t -> Backends.Backend_intf.instance
(** The CServ's admission backend — all reservation state lives behind
    the {!Backends.Backend_intf.S} interface. *)

val drkey_cache : t -> Drkey.Cache.t

val audit : t -> string list
(** Consistency audit of the admission backend, messages prefixed with
    this AS and the backend name. [[]] means clean — the chaos suite's
    leak detector after crashes and exhausted retries. *)

val set_fetch_remote_key : t -> (Ids.asn -> Drkey.as_key) -> unit
(** Wire the slow-side DRKey fetch to remote key servers (done by the
    deployment). *)
