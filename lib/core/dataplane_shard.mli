(** Shared-nothing sharding of the border router across cores (§7,
    Fig. 6).

    Border routers are stateless, so router sharding is independent
    instances fed by any packet distribution. The Fig. 6 bench
    measures one gateway's and one router's single-core rate and
    reports the shared-nothing linear model (see DESIGN.md §3);
    {!Parallel_router} is the real multicore path. *)

open Colibri_types

(** True multicore router sharding (DESIGN.md §11): one OCaml 5 domain
    per shard, fed through {!Par.Spsc_ring} job rings with
    buffer-ownership transfer. Written to the domain-ownership
    contract [colibri-domaincheck] verifies (d6–d9): all mutable state
    sits in per-worker records reached by exactly one spawn closure,
    cross-domain traffic moves only through ring endpoints with one
    owning domain each, per-worker telemetry is a private
    {!Par.Par_obs} slot merged at sample time, and the worker loop
    spins instead of blocking. *)
module Parallel_router : sig
  type t

  val create :
    ?freshness_window:Timebase.t ->
    ?monitoring:bool ->
    ?ring_capacity:int ->
    ?batch:int ->
    ?check:bool ->
    ?mono:(unit -> int) ->
    secret:Hvf.as_secret ->
    clock:Timebase.clock ->
    workers:int ->
    Ids.asn ->
    t
  (** Spawn [workers] router domains. Jobs are packet batches of up to
      [batch] buffers (default 64, ROADMAP item 1's 32–64 band), so
      one ring crossing and one acquire/release pair amortize over a
      burst. [ring_capacity] (default 64) bounds the {e jobs} in
      flight per worker (so [ring_capacity * batch] packets);
      [check] (default [true]) keeps the dynamic ring-endpoint
      ownership checker on; [mono] (default [fun () -> 0]) is a
      monotonic-ns clock sampled around each batch to accumulate
      {!worker_busy_ns}. *)

  val worker_count : t -> int

  val batch_size : t -> int
  (** Packets per job as configured at {!create}. *)

  val submit : t -> raw:bytes -> payload_len:int -> bool
  (** Copy the packet into the owning worker's open batch (dispatched
      by content mix), handing the batch to the worker once it holds
      [batch_size] packets. [false] on backpressure (all of that
      worker's jobs in flight). Steady-state allocation-free for
      constant packet sizes. *)

  val submit_batch :
    t -> raws:bytes array -> payload_lens:int array -> pos:int -> len:int -> int
  (** Submit [len] packets from [raws.(pos..)] in one call; returns
      how many were accepted before backpressure stopped the burst. *)

  val flush : t -> unit
  (** Push every part-filled batch to its worker. Call after a burst
      of {!submit}s; {!drain} and {!shutdown} flush implicitly. *)

  val submitted : t -> int
  (** Packets accepted by {!submit} so far (orchestrator-side count). *)

  val pending : t -> int
  (** Packets submitted but not yet processed, including any still in
      open batches (racy-but-monotone). *)

  val processed : t -> int
  (** Packets completed across workers — direct per-worker counter
      reads, allocation-free (monotone, exact after {!shutdown}). *)

  val drain : t -> unit
  (** {!flush}, then spin until [processed t = submitted t]. The wait
      reads plain per-worker counters — no snapshot allocation per
      iteration. *)

  val worker_busy_ns : t -> int -> int
  (** Worker [i]'s accumulated batch-processing time in the units of
      [mono] (0 under the default clock). Exact after {!shutdown}. *)

  val shutdown : t -> unit
  (** {!flush}, stop every worker after it empties its queue, then
      join the domains. Idempotent; after it, {!metrics} is exact. *)

  val worker_metrics : t -> int -> Obs.snapshot
  (** One worker's merged snapshot (its Obs slot + its router). *)

  val metrics : t -> Obs.snapshot
  (** Merge-at-sample across all worker domains: per-worker
      [par_router_{processed,forwarded,dropped}_total] plus each shard
      router's drop accounting. *)
end
