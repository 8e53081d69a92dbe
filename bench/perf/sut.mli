(** The system under test, seen from outside.

    Every call the benchmark makes into [lib/] goes through this module
    and nowhere else: when a public entry point is renamed or reshaped
    (ROADMAP item 3 collapses the [Deployment.setup_*] family), only
    this file changes. Each function maps to one call into one layer,
    so the workload code can time and trace it from outside.

    The system is always the same: [Topology_gen.linear ~n:4] under
    [Deployment.create ~seed], with the networked control plane
    attached (5 ms links plus up to 1 ms of seeded jitter, seeded loss,
    [Retry.default_policy] with seeded jitter) and one core SegR from
    AS 1 to AS 4 kept alive by [Deployment.auto_renew_segr]. Host 1 in
    AS 1 reserves towards host 2 in AS 4. *)

type conf = {
  seed : int;  (** drives the deployment, fault, and retry RNGs *)
  loss : float;  (** per-link control-message loss probability *)
  eer_mbps : float;  (** bandwidth each intent asks for *)
}

type t
type route
type flow

val build : conf -> t
(** Build the deployment and bring the core SegR up. Raises [Failure]
    if the SegR cannot be set up. *)

val hops : t -> int
(** ASes on the reservation path (4). *)

val sim_now : t -> float
(** Simulated time, in seconds. *)

val advance : t -> float -> unit
(** [Deployment.advance]: run the simulation [dt] seconds on. *)

val retry_budget : int
(** Transmissions per request under [Retry.default_policy]. *)

val last_error : t -> string
(** The most recent refusal reported by the control plane, or [""]. *)

(** {1 Control plane} *)

val lookup : t -> route option
(** [Deployment.lookup_eer_routes] from AS 1 to AS 4; the shortest
    route. *)

val setup : t -> route -> flow option
(** A fresh networked EER setup ([Deployment.setup_eer_sync]). *)

val renew : t -> flow -> bool
(** Renew a flow's EER over itself ([setup_eer_sync ~renew]). *)

val setup_concurrently : t -> route -> int -> flow array option
(** Issue [n] networked setups at once ([Deployment.setup_eer_net])
    and run the engine until all have concluded; [None] if any
    failed. *)

val auto_renew : t -> flow -> bool
(** Hand the flow to [Deployment.auto_renew_eer]. *)

val stop_renewal : flow -> unit

(** {1 Data plane} *)

val send : t -> flow -> bool
(** [Gateway.send_bytes] at AS 1 for the flow's current ResId with an
    empty payload, then copy the wire header into the packet buffer
    that {!hop} and {!pipe_submit} read. *)

val hop : t -> int -> int
(** [Router.process_bytes] at path position [i] on the packet buffer:
    {!forward}, {!deliver}, {!duplicate} (the duplicate filter
    refused it), or {!dropped} (any other refusal). *)

val forward : int
val deliver : int
val duplicate : int
val dropped : int

val packet_copy : t -> bytes
(** A copy of the current packet buffer. *)

(** {1 The two-core egress pipeline} *)

type pipe

val pipe_create : t -> now_ns:(unit -> int) -> pipe
(** A [Dataplane_shard.Parallel_router] with one worker domain running
    the AS-1 router without monitors. Its clock is the simulated time
    last published with {!pipe_publish_clock}; [now_ns] times the
    worker's busy periods. *)

val pipe_publish_clock : t -> pipe -> unit
val pipe_submit : t -> pipe -> bool
val pipe_flush : pipe -> unit
val pipe_submitted : pipe -> int
val pipe_processed : pipe -> int
val pipe_busy_ns : pipe -> int

val pipe_shutdown : pipe -> int
(** Join the worker; the number of packets it forwarded. *)

(** {1 End of run} *)

val drain : t -> flow list -> unit
(** Stop every renewal machine (the SegR's and the given flows') and
    run the simulation 400 s on, past every reservation's expiry. *)

val audit : t -> string list
(** [Deployment.audit_all]: [[]] when no AS leaks admission state. *)

val retry_pending : t -> int
val accounting_closed : t -> bool
(** Control messages sent = delivered + lost. *)

(** {1 Counters} *)

type counters = {
  msgs_sent : int;
  msgs_lost : int;
  retry_requests : int;
  retry_attempts : int;
  retry_timeouts : int;
  retry_exhausted : int;
  renew_started : int;
  renew_ok : int;
  renew_late : int;
  renew_degraded : int;
  engine_events : int;
  eer_denied : int;  (** summed over every AS *)
  gateway_drops : int;
  gateway_reservations : int;
  router_drops_duplicate : int;  (** summed over the path's routers *)
  router_drops_other : int;
  ofd_suspects : int;
  dup_fill_ratio : float;  (** the fullest duplicate filter on the path *)
}

val counters : t -> counters

(** {1 Microbenchmarks}

    Each returns nanoseconds per call, timed with [now_ns]. *)

type kernels = {
  parse : float;  (** [Packet.View.parse] *)
  auth : float;  (** parse, then [Hvf.hop_auth_into] *)
  rekey : float;  (** parse, auth, then [Crypto.Cmac.rekey] with the σ *)
  hvf : float;  (** [Hvf.eer_hvf_into] alone *)
  check : float;  (** parse, then the whole [Hvf.eer_check] *)
  all_valid : bool;  (** [Hvf.eer_check] accepted every packet *)
}

val kernels : t -> now_ns:(unit -> int) -> bytes array -> kernels
(** One pass of the router's per-packet kernels over captured packets,
    at path position 1 (the first transit AS, with its secret). The
    cumulative steps let a caller take each kernel's cost as a
    difference. *)

type walk = {
  make_eer_request : float;
  eer_forward : float;  (** summed over the path *)
  eer_backward : float;  (** summed over the path *)
  process_eer_reply : float;
  register : float;  (** [Gateway.register] of the result *)
}

val walker : conf -> now_ns:(unit -> int) -> int -> walk
(** [walker conf ~now_ns] builds a side deployment like {!build} but
    without a network; each application to [n] then runs [n]
    instantaneous EER setups composed from the public [Cserv] handlers
    and returns the median cost of each stage. *)

val send_along : now_ns:(unit -> int) -> n:int -> float
(** One control message over one link of a fresh [Control_net]:
    [send_along] plus the engine run that delivers it. *)
