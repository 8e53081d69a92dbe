(** A full simulated Colibri deployment: one CServ, gateway, and
    border router per AS of a topology, wired together with DRKey key
    servers and a shared clock.

    This is the orchestration layer that moves control-plane requests
    hop-by-hop along reservation paths (Fig. 1a/1b) and data packets
    through the chain of border routers (Fig. 1c). Examples and
    integration tests drive it; every per-AS component it glues
    together is independently usable. *)

open Colibri_types
open Colibri_topology

type t

type as_node = {
  asn : Ids.asn;
  cserv : Cserv.t;
  gateway : Gateway.t;
  router : Router.t;
}

val create :
  ?policy_for:(Ids.asn -> Cserv.policy) ->
  ?backend:Backends.Backend_intf.factory ->
  ?router_monitoring:bool ->
  ?router_auto_block:bool ->
  ?router_confirm_after_drops:int ->
  ?seed:int ->
  Topology.t ->
  t
(** Build a deployment over a topology: runs beaconing, instantiates
    per-AS services, and wires slow-side DRKey fetches to the remote
    key servers. [backend] selects the admission discipline every
    CServ runs (default: the N-Tube reference backend);
    [router_monitoring = false] builds bare-fast-path routers (no OFD /
    duplicate filter), as used by the speed benchmarks.
    [router_auto_block] additionally blocklists a source AS locally
    once a router confirms overuse (after [router_confirm_after_drops]
    policed drops) — the full §4.8 enforcement chain the attack
    scenarios exercise. *)

val clock : t -> Timebase.clock
val now : t -> Timebase.t
val engine : t -> Net.Engine.t
val topology : t -> Topology.t
val seg_db : t -> Segments.Db.t
val node : t -> Ids.asn -> as_node
val cserv : t -> Ids.asn -> Cserv.t
val gateway : t -> Ids.asn -> Gateway.t
val router : t -> Ids.asn -> Router.t

val advance : t -> float -> unit
(** Run the simulation engine forward by the given seconds. *)

(** {1 Segment-reservation orchestration}

    Every setup below runs one walk: a forward pass with per-AS
    admission, a backward pass committing the path-wide minimum and
    collecting each hop's token or σ, and on a refusal a deny walk that
    releases tentative state on its way back (Fig. 1a/1b, §3.3). The
    entry points in this section and the next run it over a synchronous
    transport: each message is handled in place and every CServ counts
    as up, so a setup completes within the call, with one attempt and
    no retries, advances no simulated time, and ignores any attached
    network or fault plan. *)

type setup_error = { at : Ids.asn; reason : Protocol.deny_reason }

val pp_setup_error : setup_error Fmt.t

val setup_segr :
  ?renew:Ids.res_key ->
  t ->
  path:Path.t ->
  kind:Reservation.seg_kind ->
  max_bw:Bandwidth.t ->
  min_bw:Bandwidth.t ->
  (Reservation.segr, string) result
(** Set up (or renew) a segment reservation from the first AS of
    [path]: forward pass with per-AS admission, backward pass
    committing the path-wide minimum and collecting Eq. (3) tokens. *)

val activate_segr : t -> key:Ids.res_key -> (unit, string) result
(** Activate the pending version of a SegR at every on-path AS and at
    the initiator (§4.2). *)

val request_down_segr :
  t -> path:Path.t -> max_bw:Bandwidth.t -> min_bw:Bandwidth.t ->
  (Reservation.segr, string) result
(** Ask the first AS of a down segment to set up a down-SegR —
    down-SegRs are only created upon explicit request by the last AS
    (§3.3). The initiator registers the SegR without a whitelist
    (restrict it with {!Cserv.register_segr}), and the leaf records the
    keys the initiator registered for it, dropping those with no
    unexpired version left. *)

(** {1 Route lookup and end-to-end reservations} *)

(** A usable chain of SegRs from source to destination: the spliced
    path plus the reservation keys in path order. *)
type eer_route = { path : Path.t; segr_keys : Ids.res_key list }

val lookup_eer_routes : t -> src:Ids.asn -> dst:Ids.asn -> eer_route list
(** Hierarchical lookup of Appendix C: own up-SegRs locally,
    down-SegRs by the keys the destination's CServ keeps, core-SegRs
    from the core AS where the up segment ends. Every key is resolved
    at its initiator through {!Cserv.live_segr} for [src], so renewed
    SegRs stay found and whitelists are checked against [src]; no CServ
    is written. Shortest spliced path first. *)

val setup_eer :
  ?renew:Ids.res_key ->
  t ->
  route:eer_route ->
  src_host:Ids.host ->
  dst_host:Ids.host ->
  bw:Bandwidth.t ->
  (Reservation.eer, string) result
(** Set up (or renew) an end-to-end reservation along [route]; on
    success it is installed at the source AS's gateway (➎ in
    Fig. 1b). *)

val setup_eer_full :
  ?renew:Ids.res_key ->
  t ->
  route:eer_route ->
  src_host:Ids.host ->
  dst_host:Ids.host ->
  bw:Bandwidth.t ->
  (Reservation.eer * Reservation.version * bytes list, string) result
(** Like {!setup_eer} but also returns the version and the unsealed
    hop authenticators — used by tests and rogue-gateway attack
    scenarios. *)

val setup_eer_auto :
  t ->
  src:Ids.asn ->
  src_host:Ids.host ->
  dst:Ids.asn ->
  dst_host:Ids.host ->
  bw:Bandwidth.t ->
  (Reservation.eer, string) result
(** Look up routes and set up an EER over the shortest feasible one,
    trying alternatives on failure (path choice, §2.1). *)

(** {1 Networked control plane}

    The [_net] and [_sync] variants run the same walk over the second
    transport, the simulated {!Control_net}: link delays, fault
    injection, per-request timeouts, capped exponential backoff, and
    bounded retry budgets ({!Retry}). On budget exhaustion the
    tentative admission state is released through the same failure
    handlers (cleanup-by-timeout, §3.3). *)

val attach_network :
  ?scheduler:Net.Link.scheduler ->
  ?delay:float ->
  ?faults:Net.Fault.t ->
  ?retry_policy:Retry.policy ->
  ?retry_seed:int ->
  t ->
  unit
(** Build the link mesh under the control plane and the retry
    machinery. Must be called before any [_net]/[_sync] operation or
    renewal machine. *)

val network_metrics : t -> Obs.Registry.t
(** The shared registry of the network layer: [control_net_*] delivery
    accounting, [retry_*] counters and histograms, and [renewal_*]
    state-machine outcomes. *)

val control_net : t -> Control_net.t
val retrier : t -> Retry.t

val server_up : t -> Ids.asn -> bool
(** Is the AS's control service processing requests right now (fault
    injector crash windows)? Always [true] without fault injection. *)

val setup_eer_net :
  ?renew:Ids.res_key ->
  ?protection:Control_net.protection ->
  t ->
  route:eer_route ->
  src_host:Ids.host ->
  dst_host:Ids.host ->
  bw:Bandwidth.t ->
  on_result:((Reservation.eer, string) result -> unit) ->
  unit
(** Networked {!setup_eer}; the reservation is installed at the source
    gateway before [on_result] fires once the engine has run far
    enough. Renewals default to {!Control_net.Over_reservation}, setups
    to {!Control_net.Prioritized_control} (§5.3). *)

val setup_segr_sync :
  ?renew:Ids.res_key ->
  ?protection:Control_net.protection ->
  ?timeout:float ->
  t ->
  path:Path.t ->
  kind:Reservation.seg_kind ->
  max_bw:Bandwidth.t ->
  min_bw:Bandwidth.t ->
  (Reservation.segr, string) result
(** Networked {!setup_segr}, blocking: runs the engine until the walk
    concludes (at most [timeout] simulated seconds). *)

val setup_eer_sync :
  ?renew:Ids.res_key ->
  ?protection:Control_net.protection ->
  ?timeout:float ->
  t ->
  route:eer_route ->
  src_host:Ids.host ->
  dst_host:Ids.host ->
  bw:Bandwidth.t ->
  (Reservation.eer, string) result

val setup_eer_auto_sync :
  t ->
  src:Ids.asn ->
  src_host:Ids.host ->
  dst:Ids.asn ->
  dst_host:Ids.host ->
  bw:Bandwidth.t ->
  (Reservation.eer, string) result
(** Networked {!setup_eer_auto}, blocking: the same path choice over
    {!setup_eer_net}, running the engine until a route grants or all
    failed (at most 120 simulated seconds). *)

(** {1 Renewal before expiry}

    The one renewal machine. A managed reservation is renewed over
    itself once 0.7 (SegR) or 0.5 (EER) of its lifetime has elapsed
    (§4.2); while it stays valid, failed renewals retry with capped
    backoff; once it lapses the machine degrades to a best-effort
    fresh setup under a new key, retried with the same backoff, and
    gives up after six consecutive failed recoveries (failed renewals
    do not count). An EER recovers over its stored route while every
    SegR in it passes {!Cserv.live_segr} for the EER's source, and
    otherwise by path choice over a fresh {!lookup_eer_routes} (§2.1).
    A SegR that recovers under a new key is shared as its predecessor
    was: registered at its initiator under the same whitelist and, for
    a down-SegR, recorded at its leaf. Outcomes are counted in {!network_metrics} as
    [renewal_{started,ok,late,degraded,recovered,gave_up}_total].
    Needs {!attach_network}. *)

type managed

val auto_renew_segr :
  t ->
  key:Ids.res_key ->
  max_bw:Bandwidth.t ->
  min_bw:Bandwidth.t ->
  (managed, string) result
(** Keep a SegR alive. [max_bw] is the demand ({!set_demand});
    [min_bw] is reused for renewals and recoveries. *)

val auto_renew_eer :
  t ->
  key:Ids.res_key ->
  route:eer_route ->
  src_host:Ids.host ->
  dst_host:Ids.host ->
  bw:Bandwidth.t ->
  (managed, string) result
(** Keep an EER alive by renewing before each version expires;
    [bw] is the demand ({!set_demand}). *)

val managed_key : managed -> Ids.res_key
(** The current key — changes when a lapse forces a fresh setup. *)

val set_demand : managed -> Bandwidth.t -> unit
(** The bandwidth the next renewal or recovery requests (an EER's
    [bw], a SegR's [max_bw]) — "possibly adjust the bandwidth to
    shifting traffic demands" (§4.2). *)

val renewals : managed -> int
val renewal_failures : managed -> int
(** Successful and failed renewals and recoveries of this handle. *)

val stop_renewal : managed -> unit

val audit_all : t -> string list
(** Audit every AS's admission state; [[]] means no AS leaks. *)

(** {1 Data plane} *)

type delivery = {
  delivered : bool;
  dropped_at : (Ids.asn * Router.drop_reason) option;
  hops_traversed : int;
}

val send_data :
  t -> src:Ids.asn -> res_id:Ids.res_id -> payload_len:int ->
  (delivery, Gateway.drop_reason) result
(** Send one data packet over an EER: gateway processing at the source
    AS, then parse+validate+forward at every border router on the path
    (Fig. 1c). *)
