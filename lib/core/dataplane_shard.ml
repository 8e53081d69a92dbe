(** Shared-nothing sharding of the border router across cores (§7,
    Fig. 6).

    The paper shows the gateway and border router scale almost
    perfectly linearly with cores, because per-packet processing is a
    pure function of the packet and (for the gateway) of per-ResId
    state that can be partitioned: "multiple gateways, each handling
    only a fraction of all reservations" (§7.2). Border routers are
    stateless (their monitors are per-instance and probabilistic), so
    router sharding is [n] independent instances fed by any packet
    distribution; {!Parallel_router} runs each on its own OCaml 5
    domain. The Fig. 6 bench measures one gateway's and one router's
    single-core rate and reports the shared-nothing linear model; see
    DESIGN.md §3. *)

open Colibri_types

(* Worker/shard selection from (frame length, dispatch byte) without
   touching the allocator: the previous [Hashtbl.hash (len, b)] built a
   fresh tuple per packet on the router dispatch path (deepscan d3
   flags the polymorphic hash at composite type; the tuple itself was
   a hidden per-packet allocation). A two-round multiply-xor-shift
   avalanche spreads both inputs across the word; [land max_int]
   clears the sign bit before the caller's [mod] (a negative [mod]
   would index out of range — lint R6). Load balancing only, not
   authentication. *)
(* hot-path *)
let dispatch_mix ~(len : int) ~(b : int) : int =
  let h = (len * 0x9e3779b97f4a7c1) lxor b in
  let h = h lxor (h lsr 31) in
  let h = h * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 29)) land max_int

(** True multicore sharding (DESIGN.md §11): one domain per router
    shard, fed through SPSC rings with buffer-ownership transfer.

    This is the first real [Domain.spawn] in the dataplane, so it is
    written to the domain-ownership contract that
    [colibri-domaincheck] verifies statically (rules d6–d9) and
    {!Par.Spsc_ring}'s endpoint checker enforces dynamically:

    - all mutable state lives in the per-worker {!Parallel_router.worker}
      record — the router instance, both rings and the job stock are
      reachable from exactly one spawn closure (d6);
    - cross-domain traffic moves only through [Par.Spsc_ring]: the
      orchestrating domain pushes jobs on [submit] and recycles them
      from [free]; the worker pops [submit] and pushes [free] — each
      endpoint has exactly one owning domain (d8), and a job is never
      touched by the side that pushed it until it comes back;
    - per-worker telemetry is a private {!Par.Par_obs} slot claimed
      inside the worker domain and merged at sample time;
    - the worker loop is marked [@colibri.hot] and therefore spins
      ([Domain.cpu_relax]) instead of blocking on a lock (d9).

    Jobs are packet {e batches} (ROADMAP item 1: 32–64 buffers per
    crossing), so the ring's acquire/release pair, the worker's
    counter bookkeeping and the dispatch all amortize over
    [batch] packets instead of being paid per packet — the PR-6
    job-per-packet design paid a cache-coherence round-trip per
    packet, which is exactly the negative scaling BENCH_colibri.json
    recorded. *)
module Parallel_router = struct
  (* A job owns a batch of buffers: the producer fills
     [bufs.(0..count-1)] (frame length = [Bytes.length bufs.(k)],
     payload length = [plens.(k)]) before pushing and must not alias
     any of them afterwards; the worker reads them and hands the job
     back through [free]. [count = -1] marks the per-worker [nil]
     sentinel (ring dummy / "no open batch"). *)
  type job = {
    mutable bufs : bytes array;
    mutable plens : int array;
    mutable count : int;
  }

  type worker = {
    router : Router.t;
    submit : job Par.Spsc_ring.t; (* orchestrator -> worker *)
    free : job Par.Spsc_ring.t; (* worker -> orchestrator (recycling) *)
    mutable stock : job list; (* fresh jobs, orchestrator-owned *)
    mutable open_job : job; (* orchestrator-owned partial batch, or [nil] *)
    nil : job; (* shared sentinel; never written by either side *)
    oscratch : job array; (* orchestrator-side pop_into destination *)
    wscratch : job array; (* worker-side pop_into destination; wired at
                             construction, touched only by the worker *)
    processed_c : Obs.Counter.t; (* worker-incremented; the orchestrator
                                    reads [value] racily (monotone) *)
    mutable busy_ns : int; (* worker-written wall time spent processing *)
    stop : bool Atomic.t;
  }

  type t = {
    workers : worker array;
    batch : int;
    pool : unit Par.Domain_pool.t;
    pobs : Par.Par_obs.t;
    mutable submitted : int; (* orchestrator-owned *)
    mutable joined : bool;
  }

  let processed_key = "par_router_processed_total"
  let forwarded_key = "par_router_forwarded_total"
  let dropped_key = "par_router_dropped_total"

  (* Runs inside the worker domain. The Obs slot is claimed here — in
     the owning domain — so the dynamic checker records this domain as
     the slot owner before the first increment; [Registry.counter] is
     get-or-create, so these are the same counter objects the
     orchestrator pre-created at construction time for its direct
     (allocation-free) drain reads. *)
  let worker_loop (mono : unit -> int) (pobs : Par.Par_obs.t) (i : int)
      (st : worker) : unit =
    let reg = Par.Par_obs.claim pobs i in
    let processed = Obs.Registry.counter reg processed_key in
    let forwarded = Obs.Registry.counter reg forwarded_key in
    let dropped = Obs.Registry.counter reg dropped_key in
    (* Pop and process one job; [false] when the submit ring is empty. *)
    let run_one () =
      Par.Spsc_ring.pop_into st.submit st.wscratch ~pos:0 ~len:1 = 1
      && begin
        let job = st.wscratch.(0) in
        st.wscratch.(0) <- st.nil;
        let t0 = mono () in
        for k = 0 to job.count - 1 do
          (match
             Router.process_bytes st.router ~raw:job.bufs.(k)
               ~payload_len:job.plens.(k)
           with
          | Ok _ -> Obs.Counter.incr forwarded
          | Error _ -> Obs.Counter.incr dropped);
          Obs.Counter.incr processed
        done;
        st.busy_ns <- st.busy_ns + (mono () - t0);
        job.count <- 0;
        (* Ownership transfer back: after this push the worker must
           not touch [job] or its buffers again. *)
        Par.Spsc_ring.push_spin st.free job;
        true
      end
    in
    let rec loop () =
      if run_one () then loop ()
      else if not (Atomic.get st.stop) then begin
        Domain.cpu_relax ();
        loop ()
      end
      (* [shutdown] pushes its last batch before it sets [stop], so
         that batch may have landed between the empty pop above and
         the read of [stop]: look once more, and exit only on an empty
         ring. *)
      else if run_one () then loop ()
    in
    loop ()

  let create ?freshness_window ?(monitoring = false) ?(ring_capacity = 64)
      ?(batch = 64) ?(check = true) ?(mono = fun () -> 0)
      ~(secret : Hvf.as_secret) ~(clock : Timebase.clock) ~(workers : int)
      (asn : Ids.asn) : t =
    (* Construction-time validation; never on the per-packet path. *)
    (* lint: allow hot-path-exn *)
    if workers < 1 then invalid_arg "Parallel_router.create: workers < 1";
    (* lint: allow hot-path-exn *)
    if batch < 1 then invalid_arg "Parallel_router.create: batch < 1";
    let pobs = Par.Par_obs.create ~slots:workers in
    let mk i =
      let router =
        if monitoring then Router.create ?freshness_window ~secret ~clock asn
        else
          Router.create ?freshness_window ~ofd:`None ~duplicates:`None ~secret
            ~clock asn
      in
      let nil = { bufs = [||]; plens = [||]; count = -1 } in
      let fresh_job _ =
        {
          bufs = Array.make batch Bytes.empty;
          plens = Array.make batch 0;
          count = 0;
        }
      in
      {
        router;
        submit = Par.Spsc_ring.create ~check ~dummy:nil ring_capacity;
        free = Par.Spsc_ring.create ~check ~dummy:nil ring_capacity;
        stock = List.init ring_capacity fresh_job;
        open_job = nil;
        nil;
        oscratch = Array.make 1 nil;
        wscratch = Array.make 1 nil;
        processed_c =
          Obs.Registry.counter (Par.Par_obs.registry pobs i) processed_key;
        busy_ns = 0;
        stop = Atomic.make false;
      }
    in
    let states = Array.init workers mk in
    (* [states] is captured by the pool closure AND kept by the
       orchestrator, so domaincheck's D6 sees shared mutable state.
       Reviewed (DESIGN.md §11): the array itself is written by
       neither side after spawn; worker [i] touches only
       [states.(i)], and every cross-domain field is an SPSC ring, an
       [Atomic.t], a construction-time-wired scratch/counter touched
       by one side only, or [busy_ns]/[processed_c] (worker-written
       single words the orchestrator reads racily-but-monotonically) —
       the dynamic endpoint checker enforces the ring contract at run
       time. *)
    let pool =
      Par.Domain_pool.spawn ~n:workers
        ((fun i -> worker_loop mono pobs i states.(i)) [@colibri.hot]
        [@colibri.allow "d6"])
    in
    { workers = states; batch; pool; pobs; submitted = 0; joined = false }

  let worker_count (t : t) = Array.length t.workers
  let batch_size (t : t) = t.batch

  (* Content-mix dispatch ({!dispatch_mix}): load balancing, not
     authentication. *)
  (* hot-path *)
  let dispatch (t : t) (raw : bytes) : int =
    let b = if Bytes.length raw > 8 then Char.code (Bytes.get raw 8) else 0 in
    dispatch_mix ~len:(Bytes.length raw) ~b mod Array.length t.workers

  (* Make [w.open_job] a real (possibly part-filled) batch, recycling
     from the stock first and the [free] ring second. [pop_into] with
     the one-slot scratch keeps the recycle path allocation-free
     ([try_pop] would box an option per batch). [false] = every job of
     this worker is in flight. *)
  let ensure_open (w : worker) : bool =
    w.open_job.count >= 0
    || (match w.stock with
       | j :: rest ->
           w.stock <- rest;
           w.open_job <- j;
           true
       | [] ->
           Par.Spsc_ring.pop_into w.free w.oscratch ~pos:0 ~len:1 = 1
           && begin
                w.open_job <- w.oscratch.(0);
                w.oscratch.(0) <- w.nil;
                true
              end)

  (* Hand the open batch (if any) to its worker. Clearing [open_job]
     {e before} the push keeps the ownership contract: after the push
     the orchestrator holds no path to the job. *)
  let flush_worker (w : worker) : unit =
    let j = w.open_job in
    if j.count > 0 then begin
      w.open_job <- w.nil;
      (* The submit ring's capacity bounds the jobs in circulation, so
         this push cannot spin for long; after it, [j] belongs to the
         worker. *)
      Par.Spsc_ring.push_spin w.submit j
    end

  (** Push every part-filled batch to its worker. Call after a burst
      of {!submit}s (or rely on {!drain}, which flushes first) —
      without it up to [batch - 1] packets per worker sit in the open
      batch indefinitely. *)
  let flush (t : t) : unit = Array.iter flush_worker t.workers

  (** Copy [raw] into the owning worker's open batch, handing the
      batch over once it reaches [batch] packets. [false] means
      backpressure: every job of that worker is in flight — retry
      after the worker drains. Steady-state allocation-free once job
      buffers have grown to the traffic's packet size. *)
  let submit (t : t) ~(raw : bytes) ~(payload_len : int) : bool =
    let w = t.workers.(dispatch t raw) in
    ensure_open w
    && begin
         let j = w.open_job in
         let k = j.count in
         let len = Bytes.length raw in
         if Bytes.length j.bufs.(k) <> len then j.bufs.(k) <- Bytes.create len;
         Bytes.blit raw 0 j.bufs.(k) 0 len;
         j.plens.(k) <- payload_len;
         j.count <- k + 1;
         t.submitted <- t.submitted + 1;
         if j.count >= t.batch then flush_worker w;
         true
       end

  (** Submit [len] packets from [raws.(pos..)] / [payload_lens.(pos..)]
      in one call; returns how many were accepted before backpressure
      stopped the burst (= [len] when every worker had capacity). *)
  let submit_batch (t : t) ~(raws : bytes array) ~(payload_lens : int array)
      ~(pos : int) ~(len : int) : int =
    let n = ref 0 in
    let ok = ref true in
    while !ok && !n < len do
      let k = pos + !n in
      if submit t ~raw:raws.(k) ~payload_len:payload_lens.(k) then incr n
      else ok := false
    done;
    !n

  let submitted (t : t) : int = t.submitted

  (* Direct-read worker-counter sum: one plain [int] load per worker,
     no snapshot, no assoc list — safe to call inside a spin loop. *)
  let rec live_processed (ws : worker array) (i : int) (acc : int) : int =
    if i >= Array.length ws then acc
    else live_processed ws (i + 1) (acc + Obs.Counter.value ws.(i).processed_c)

  let processed (t : t) : int = live_processed t.workers 0 0

  (** Packets submitted but not yet processed (racy-but-monotone:
      counts open batches, in-flight jobs and the worker's current
      batch). *)
  let pending (t : t) : int =
    let p = t.submitted - processed t in
    if p < 0 then 0 else p

  (** Flush open batches, then spin until every submitted packet has
      been processed. The wait reads the workers' counters directly
      (allocation-free, monotone — the PR-6 version rebuilt a full
      [Par_obs.sample] assoc list per spin iteration, allocating
      kilobytes while the workers were trying to run). *)
  let drain (t : t) : unit =
    flush t;
    while processed t < t.submitted do
      Domain.cpu_relax ()
    done

  (** Worker [i]'s accumulated processing wall time in the units of
      the [mono] clock passed to {!create} (0 with the default clock).
      Exact after {!shutdown}; racy-but-monotone live. *)
  let worker_busy_ns (t : t) (i : int) : int = t.workers.(i).busy_ns

  (** Flush open batches, signal every worker to finish its queue and
      exit, then join the pool. After [shutdown] the merged metrics
      are exact. *)
  let shutdown (t : t) : unit =
    if not t.joined then begin
      t.joined <- true;
      flush t;
      Array.iter (fun w -> Atomic.set w.stop true) t.workers;
      ignore (Par.Domain_pool.join t.pool)
    end

  let worker_metrics (t : t) (i : int) : Obs.snapshot =
    Obs.merge
      [
        Obs.Registry.snapshot (Par.Par_obs.registry t.pobs i);
        Obs.Registry.snapshot (Router.metrics t.workers.(i).router);
      ]

  (** Merge-at-sample across worker domains: per-worker counters plus
      each shard router's own registry. Exact after {!shutdown}; a
      live sample is racy-but-monotone (monitoring only). *)
  let metrics (t : t) : Obs.snapshot =
    Obs.merge
      (Par.Par_obs.sample t.pobs
      :: Array.to_list
           (Array.map
              (fun w -> Obs.Registry.snapshot (Router.metrics w.router))
              t.workers))
end
