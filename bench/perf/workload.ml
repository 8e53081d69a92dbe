(** The four workloads and the closed-loop client that drives them.

    Every workload is one host in AS 1 with a set of live flows (EERs
    to a host in AS 4). An intent is a reservation obtained the way a
    host does it; a packet is a smallest-size packet on a randomly
    chosen live flow. The client is closed-loop: the next step starts
    only when the previous one has returned. The workloads differ in
    how flows come and go, in the control plane's loss, in how intents
    and packets are mixed, and in which data-plane engine carries the
    packets; so each stresses different layers. *)

type flows =
  | Renewed  (** a fixed set; each intent renews the next flow in turn *)
  | Fresh  (** each intent looks up a route and opens a new flow that
               replaces the oldest *)
  | Churned  (** like [Fresh], and every live flow is auto-renewed until
                 it is replaced *)

type shape =
  | Interleaved of int
      (** each iteration is one intent followed by this many packets *)
  | Phased of int
      (** the timed rounds carry packets only; after every fifth round
          this many flows are renewed, timed apart *)

type spec = {
  name : string;
  live : int;  (** live flows *)
  loss : float;  (** per-link control-message loss *)
  eer_mbps : float;
  flows : flows;
  shape : shape;
  tick : float;  (** simulated seconds the clock advances per packet *)
  pipeline : bool;
      (** packets go through the two-core egress pipeline (AS 1 only)
          instead of all four routers in this domain *)
  warmup : int;  (** iterations (phased: packets) before the heap checkpoint *)
}

(* [forward] holds 4096 flows, far more than can be renewed within an
   EER's 16 s lifetime at ~34 simulated ms per renewal, so its
   simulated clock is budgeted: packet ticks advance it by at most
   [sim_per_round] in each of the 40 rounds, and the 8 renewal phases
   of 30 add ~8.3 s, ~12.5 s in all. A phase of 30 renewals makes the
   first one, which finds its caches emptied by the packets, a small
   share of the samples. README.md gives the measurements behind
   [churn]'s 32 packets per intent. *)
let specs =
  [
    {
      name = "forward";
      live = 4096;
      loss = 0.;
      eer_mbps = 10.;
      flows = Renewed;
      shape = Phased 30;
      tick = 10e-6;
      pipeline = false;
      warmup = 8192;
    };
    {
      name = "setup";
      live = 1;
      loss = 0.05;
      eer_mbps = 10.;
      flows = Fresh;
      shape = Interleaved 1;
      tick = 0.;
      pipeline = false;
      warmup = 4000;
    };
    {
      name = "churn";
      live = 256;
      loss = 0.;
      eer_mbps = 100.;
      flows = Churned;
      shape = Interleaved 32;
      tick = 0.;
      pipeline = false;
      warmup = 256;
    };
    {
      name = "pipeline";
      live = 256;
      loss = 0.;
      eer_mbps = 100.;
      flows = Renewed;
      shape = Phased 30;
      tick = 0.;
      pipeline = true;
      warmup = 8192;
    };
  ]

let find (name : string) = List.find_opt (fun s -> String.equal s.name name) specs
let sim_per_round = 0.1
let phase_every = 5

(* A host re-issues an intent the control plane refused — under loss,
   one whose retries ran out — up to this many times in all. *)
let host_tries = 3

type opts = { seconds : float; trace : bool; smoke : bool }

(** What one measurement round saw. Latency arrays are sorted. *)
type round = {
  traced : bool;
  data_s : float;  (** wall time of the packets (interleaved: the whole round) *)
  ctl_s : float;  (** wall time of the intents (interleaved: the whole round) *)
  rate : float;
      (** iterations (phased: packets) per second; a traced round's
          traced part only *)
  intents : int;
  granted : int;
  calls : int;  (** setup or renewal calls, re-issues included *)
  refused : int;  (** calls the control plane refused *)
  packets : int;
  delivered : int;
  false_dups : int;
  fwd_lat_us : float array;
  setup_wall_us : float array;
  setup_sim_ms : float array;
  minor_words : float;
  promoted_words : float;
  spans : int * int;
      (** the ids of the spans of the round's iterations, [[lo, hi)] *)
  ctl_spans : int * int;  (** of its renewal phase, if any *)
  wait_ns : int;  (** pipeline: main domain waiting on the worker *)
  busy_ns : int;
}

type result = {
  spec : spec;
  hops : int;
  setup_s : float list;  (** one per set-up *)
  heap_mb : float;
  rounds : round list;
  c0 : Sut.counters;  (** at the start of measurement *)
  c1 : Sut.counters;  (** at its end *)
  packets_delivered : int;  (** over all rounds, incl. drops seen only at the end *)
  packets_failed : int;
      (** not delivered, and not a false positive of the duplicate filter *)
  checks : (string * string option) list;  (** [Some why] when violated *)
  trace : Trace.t option;
  kernels : Sut.kernels list;  (** one batch after each traced round *)
  walks : Sut.walk list;
  send_along_ns : float list;
}

(* Per-round accumulators. *)
type acc = {
  mutable intents : int;
  mutable granted : int;
  mutable calls : int;
  mutable refused : int;
  mutable packets : int;
  mutable delivered : int;
  mutable false_dups : int;
  lat : Stats.buf;
  swall : Stats.buf;
  ssim : Stats.buf;
  mutable wait_ns : int;
}

let acc () =
  {
    intents = 0;
    granted = 0;
    calls = 0;
    refused = 0;
    packets = 0;
    delivered = 0;
    false_dups = 0;
    lat = Stats.buf ();
    swall = Stats.buf ();
    ssim = Stats.buf ();
    wait_ns = 0;
  }

(* The pipeline's client keeps at most [window] packets in flight —
   two of the worker's 64-packet batches, so the worker always has the
   next batch queued while the main domain fills another — and times
   each from a ring indexed by submission number. *)
let window = 128
let ring = 256

(* Between two looks at the worker's progress counter the main domain
   pauses, so its reads do not keep stealing the counter's cache line
   from the worker that increments it per packet. *)
let relax () =
  for _ = 1 to 64 do
    Domain.cpu_relax ()
  done

type client = {
  spec : spec;
  sut : Sut.t;
  pipe : Sut.pipe option;
  rng : Random.State.t;
  live : Sut.flow array;
  hops : int;
  mutable iter : int;
  mutable intents : int;
  mutable sim_left : float;  (** packet ticks left in this round *)
  mutable tr : Trace.t;
  mutable a : acc;
  bank : bytes array;  (** packets captured during warm-up *)
  mutable banked : int;
  sent_at : int array;  (** pipeline: send time by submission index *)
  mutable observed : int;  (** pipeline: completions already timed *)
}

let bank_size = 256

(* ---------------- Set-up ---------------- *)

let build (spec : spec) ~(seed : int) : client =
  let sut = Sut.build { seed; loss = spec.loss; eer_mbps = spec.eer_mbps } in
  let fail what = failwith (Printf.sprintf "%s: %s" what (Sut.last_error sut)) in
  let route = match Sut.lookup sut with Some r -> r | None -> fail "route lookup" in
  let live =
    match Sut.setup_concurrently sut route spec.live with
    | Some fs -> fs
    | None -> fail "initial flows"
  in
  if spec.flows = Churned then
    Array.iter (fun f -> if not (Sut.auto_renew sut f) then fail "auto-renewal") live;
  {
    spec;
    sut;
    pipe =
      (if spec.pipeline then Some (Sut.pipe_create sut ~now_ns:Trace.now_ns) else None);
    rng = Random.State.make [| seed; 0xF10 |];
    live;
    hops = Sut.hops sut;
    iter = 0;
    intents = 0;
    sim_left = sim_per_round;
    tr = Trace.off;
    a = acc ();
    bank = Array.make bank_size Bytes.empty;
    banked = 0;
    sent_at = Array.make ring 0;
    observed = 0;
  }

(* ---------------- Intents ---------------- *)

(* Put a fresh flow in the oldest flow's slot; a churned flow is handed
   to the renewal machine and the one it replaces is released. *)
let replace (c : client) (f : Sut.flow) : bool =
  let slot = c.intents mod Array.length c.live in
  let ok =
    c.spec.flows <> Churned
    ||
    let s = Trace.enter c.tr Trace.auto_renew ~hop:(-1) in
    let ok = Sut.auto_renew c.sut f in
    Trace.leave c.tr s;
    let s = Trace.enter c.tr Trace.stop_renewal ~hop:(-1) in
    Sut.stop_renewal c.live.(slot);
    Trace.leave c.tr s;
    ok
  in
  c.live.(slot) <- f;
  ok

(* One setup or renewal call. *)
let call (c : client) =
  let tr = c.tr in
  c.a.calls <- c.a.calls + 1;
  let outcome =
    match c.spec.flows with
    | Renewed ->
        let f = c.live.(c.intents mod Array.length c.live) in
        let s = Trace.enter tr Trace.setup ~hop:(-1) in
        let ok = Sut.renew c.sut f in
        Trace.leave tr s;
        if ok then `Renewed else `Failed
    | Fresh | Churned -> (
        let s = Trace.enter tr Trace.lookup ~hop:(-1) in
        let route = Sut.lookup c.sut in
        Trace.leave tr s;
        match route with
        | None -> `Failed
        | Some route -> (
            let s = Trace.enter tr Trace.setup ~hop:(-1) in
            let f = Sut.setup c.sut route in
            Trace.leave tr s;
            match f with Some f -> `Opened f | None -> `Failed))
  in
  if outcome = `Failed then c.a.refused <- c.a.refused + 1;
  outcome

let intent (c : client) =
  let root = Trace.enter c.tr Trace.intent ~hop:(-1) in
  let t0 = Trace.now_ns () and s0 = Sut.sim_now c.sut in
  let rec attempt k =
    match call c with `Failed when k < host_tries -> attempt (k + 1) | o -> o
  in
  let outcome = attempt 1 in
  let t1 = Trace.now_ns () and s1 = Sut.sim_now c.sut in
  let ok =
    match outcome with `Renewed -> true | `Opened f -> replace c f | `Failed -> false
  in
  Trace.leave c.tr root;
  c.intents <- c.intents + 1;
  c.a.intents <- c.a.intents + 1;
  if ok then begin
    c.a.granted <- c.a.granted + 1;
    Stats.push c.a.swall (float_of_int (t1 - t0) /. 1e3);
    Stats.push c.a.ssim ((s1 -. s0) *. 1e3)
  end

(* ---------------- Packets ---------------- *)

let pick (c : client) : Sut.flow = c.live.(Random.State.int c.rng (Array.length c.live))

let capture (c : client) =
  if c.banked < bank_size then begin
    c.bank.(c.banked) <- Sut.packet_copy c.sut;
    c.banked <- c.banked + 1
  end

(* The router of every AS on the path; delivered only if the last hop
   hands the packet to the destination host. The client never sends a
   packet twice, so every duplicate-filter refusal is one of the
   filter's false positives — behaviour its contract allows, at a
   bounded rate — and is told apart from a failure. *)
let delivered = 0
let false_dup = 1
let lost = 2

let rec walk (c : client) (h : int) : int =
  let s = Trace.enter c.tr Trace.process_bytes ~hop:h in
  let v = Sut.hop c.sut h in
  Trace.leave c.tr s;
  if v = Sut.forward then if h + 1 < c.hops then walk c (h + 1) else lost
  else if v = Sut.deliver && h = c.hops - 1 then delivered
  else if v = Sut.duplicate then false_dup
  else lost

let packet (c : client) =
  let tr = c.tr in
  let f = pick c in
  let root = Trace.enter tr Trace.packet ~hop:(-1) in
  let t0 = Trace.now_ns () in
  let s = Trace.enter tr Trace.send_bytes ~hop:(-1) in
  let sent = Sut.send c.sut f in
  Trace.leave tr s;
  let outcome = if sent then walk c 0 else lost in
  let t1 = Trace.now_ns () in
  Trace.leave tr root;
  c.a.packets <- c.a.packets + 1;
  if outcome = delivered then begin
    c.a.delivered <- c.a.delivered + 1;
    Stats.push c.a.lat (float_of_int (t1 - t0) /. 1e3)
  end
  else if outcome = false_dup then c.a.false_dups <- c.a.false_dups + 1;
  if sent then capture c;
  if c.sim_left > 0. && c.spec.tick > 0. then begin
    Sut.advance c.sut c.spec.tick;
    c.sim_left <- c.sim_left -. c.spec.tick
  end

(* Time every packet the worker has completed since the last look: its
   latency runs from its [send_bytes] call to the moment the main
   domain sees it processed. *)
let observe (c : client) (p : Sut.pipe) =
  let done_ = Sut.pipe_processed p in
  if c.observed < done_ then begin
    let now = Trace.now_ns () in
    while c.observed < done_ do
      Stats.push c.a.lat
        (float_of_int (now - c.sent_at.(c.observed land (ring - 1))) /. 1e3);
      c.observed <- c.observed + 1
    done
  end

let pipe_packet (c : client) (p : Sut.pipe) =
  let tr = c.tr in
  if Sut.pipe_submitted p - c.observed >= window then begin
    let s = Trace.enter tr Trace.wait ~hop:(-1) in
    let w0 = Trace.now_ns () in
    while (observe c p; Sut.pipe_submitted p - c.observed >= window) do
      relax ()
    done;
    c.a.wait_ns <- c.a.wait_ns + (Trace.now_ns () - w0);
    Trace.leave tr s
  end;
  let f = pick c in
  let root = Trace.enter tr Trace.packet ~hop:(-1) in
  let t0 = Trace.now_ns () in
  let s = Trace.enter tr Trace.send_bytes ~hop:(-1) in
  let sent = Sut.send c.sut f in
  Trace.leave tr s;
  if sent then begin
    c.sent_at.(Sut.pipe_submitted p land (ring - 1)) <- t0;
    let s = Trace.enter tr Trace.submit ~hop:0 in
    (* Never refused: the window keeps 2 of the worker's 64 jobs busy.
       A refusal would show as an undelivered packet. *)
    ignore (Sut.pipe_submit c.sut p);
    Trace.leave tr s;
    capture c
  end;
  Trace.leave tr root;
  c.a.packets <- c.a.packets + 1;
  observe c p

(* The pipeline clears before the host's next control action, so every
   packet's completion is seen while the main domain is watching. *)
let pipe_drain (c : client) (p : Sut.pipe) =
  let s = Trace.enter c.tr Trace.wait ~hop:(-1) in
  let t0 = Trace.now_ns () in
  Sut.pipe_flush p;
  while (observe c p; c.observed < Sut.pipe_submitted p) do
    relax ()
  done;
  c.a.wait_ns <- c.a.wait_ns + (Trace.now_ns () - t0);
  Trace.leave c.tr s

(* ---------------- Iterations ---------------- *)

(* Interleaved: an intent and its packets. Phased: one packet. *)
let iteration (c : client) =
  (match (c.spec.shape, c.pipe) with
  | Interleaved n, _ ->
      intent c;
      for _ = 1 to n do
        packet c
      done
  | Phased _, None -> packet c
  | Phased _, Some p -> pipe_packet c p);
  c.iter <- c.iter + 1

(* A phased workload's packets are all done before its intents run:
   the pipeline drains, and what it processed counts as delivered. *)
let end_of_packets (c : client) ~(processed0 : int) =
  Option.iter
    (fun p ->
      pipe_drain c p;
      c.a.delivered <- c.a.delivered + (Sut.pipe_processed p - processed0))
    c.pipe

let renewals (c : client) =
  match c.spec.shape with
  | Interleaved _ -> ()
  | Phased n ->
      for _ = 1 to n do
        intent c
      done;
      Option.iter (Sut.pipe_publish_clock c.sut) c.pipe

let processed (c : client) = match c.pipe with Some p -> Sut.pipe_processed p | None -> 0

(* ---------------- Rounds ---------------- *)

(* One round: [slice_ns] of iterations, then, with [renew], a phased
   workload's renewals. A traced round records spans until its share of
   the span arrays, less room for the renewals, is used up, and then
   runs on untraced; its [rate] covers the traced part only. *)
let round (c : client) ~(traced : bool) ~(renew : bool) ~(slice_ns : int)
    ~(span_budget : int) : round =
  c.a <- acc ();
  c.sim_left <- sim_per_round;
  let busy0 = match c.pipe with Some p -> Sut.pipe_busy_ns p | None -> 0 in
  let processed0 = processed c in
  let iter0 = c.iter in
  let span0 = c.tr.n in
  let per_iter, reserve =
    match c.spec.shape with
    | Interleaved n -> (5 + (n * (2 + c.hops)), 0)
    | Phased n -> (3 + c.hops, if renew then 2 * n else 0)
  in
  let w0 = Gc.minor_words () in
  let p0 = (Gc.quick_stat ()).promoted_words in
  let t0 = Trace.now_ns () in
  let traced_until = ref None in
  let stop_tracing () =
    if c.tr.on && c.tr.n + per_iter + reserve > span0 + span_budget then begin
      c.tr.on <- false;
      traced_until := Some (Trace.now_ns (), c.iter)
    end
  in
  stop_tracing ();
  iteration c;
  while Trace.now_ns () - t0 < slice_ns do
    stop_tracing ();
    iteration c
  done;
  let rate_end, rate_iter = Option.value !traced_until ~default:(Trace.now_ns (), c.iter) in
  end_of_packets c ~processed0;
  let t1 = Trace.now_ns () in
  let span1 = c.tr.n in
  c.tr.on <- traced;
  if renew then renewals c;
  let t2 = Trace.now_ns () in
  let a = c.a in
  let data_s = float_of_int (t1 - t0) /. 1e9 in
  {
    traced;
    data_s;
    ctl_s =
      (match c.spec.shape with
      | Interleaved _ -> data_s
      | Phased _ -> float_of_int (t2 - t1) /. 1e9);
    rate = float_of_int (rate_iter - iter0) /. (float_of_int (rate_end - t0) /. 1e9);
    intents = a.intents;
    granted = a.granted;
    calls = a.calls;
    refused = a.refused;
    packets = a.packets;
    delivered = a.delivered;
    false_dups = a.false_dups;
    fwd_lat_us = Stats.sorted a.lat;
    setup_wall_us = Stats.sorted a.swall;
    setup_sim_ms = Stats.sorted a.ssim;
    minor_words = Gc.minor_words () -. w0;
    promoted_words = (Gc.quick_stat ()).promoted_words -. p0;
    spans = (span0, span1);
    ctl_spans = (span1, c.tr.n);
    wait_ns = a.wait_ns;
    busy_ns = (match c.pipe with Some p -> Sut.pipe_busy_ns p | None -> 0) - busy0;
  }

let span_capacity = 1 lsl 19
let n_rounds = 40

(* The probability that the control plane refuses one call on a
   lossless-but-for-[loss] path: every one of the retry budget's
   transmissions loses the request or its reply on one of the path's
   links, crossed once each way. *)
let refusal_rate (spec : spec) ~(hops : int) =
  let attempt_lost = 1. -. ((1. -. spec.loss) ** float_of_int (2 * (hops - 1))) in
  attempt_lost ** float_of_int Sut.retry_budget

(** Set the system up several times — build it, then warm it up for a
    fixed amount of work — and keep the last one; take the heap
    checkpoint, then measure in rounds. The set-up time is the median of
    three to nine set-ups, as many as fit in a second. With [trace],
    rounds alternate untraced and traced, and a batch of the layer
    microbenchmarks runs after each traced round. *)
let run (spec : spec) ~(seed : int) (o : opts) : result =
  let spec =
    if o.smoke then { spec with live = min spec.live 64; warmup = min spec.warmup 8 }
    else spec
  in
  let set_up () =
    let t0 = Trace.now_ns () in
    let c = build spec ~seed in
    let processed0 = processed c in
    for _ = 1 to spec.warmup do
      iteration c
    done;
    end_of_packets c ~processed0;
    (c, float_of_int (Trace.now_ns () - t0) /. 1e9)
  in
  let t_setup = Trace.now_ns () in
  let rec set_ups times =
    let c, t = set_up () in
    let times = t :: times in
    let n = List.length times in
    if o.smoke || (n >= 3 && (n >= 9 || Trace.now_ns () - t_setup >= 1_000_000_000)) then
      (c, times)
    else begin
      Option.iter (fun p -> ignore (Sut.pipe_shutdown p)) c.pipe;
      set_ups times
    end
  in
  let c, times = set_ups [] in
  Gc.full_major ();
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).live_words * (Sys.word_size / 8)) /. 1048576.
  in
  (* Forty short rounds, so that the host's quiet spells hold whole
     rounds (see Metrics.steady); a traced run alternates untraced and
     traced ones. *)
  let tr = if o.trace then Trace.create span_capacity else Trace.off in
  let slice_ns = int_of_float (o.seconds /. float_of_int n_rounds *. 1e9) in
  (* Layer microbenchmarks run in small batches after each traced round,
     so that they too sample the host over the whole run. *)
  let bank = Array.sub c.bank 0 c.banked in
  let walker =
    if o.trace then
      Some (Sut.walker { seed; loss = 0.; eer_mbps = spec.eer_mbps } ~now_ns:Trace.now_ns)
    else None
  in
  let kernels = ref [] and walks = ref [] and send_along = ref [] in
  let microbenchmarks walk =
    kernels := Sut.kernels c.sut ~now_ns:Trace.now_ns bank :: !kernels;
    walks := walk 16 :: !walks;
    send_along := Sut.send_along ~now_ns:Trace.now_ns ~n:250 :: !send_along
  in
  let c0 = Sut.counters c.sut in
  let rounds =
    List.init n_rounds (fun i ->
        let traced = o.trace && i mod 2 = 1 in
        c.tr <- (if traced then tr else Trace.off);
        tr.on <- traced;
        let r =
          round c ~traced
            ~renew:(i mod phase_every = phase_every - 1)
            ~slice_ns
            ~span_budget:(span_capacity / (n_rounds / 2))
        in
        tr.on <- false;
        if traced then Option.iter microbenchmarks walker;
        r)
  in
  c.tr <- Trace.off;
  let c1 = Sut.counters c.sut in
  let lost_in_pipe, pipe_checks =
    match c.pipe with
    | None -> (0, [])
    | Some p ->
        let processed = Sut.pipe_processed p and submitted = Sut.pipe_submitted p in
        let forwarded = Sut.pipe_shutdown p in
        ( submitted - forwarded,
          [
            ( "pipeline: processed = submitted after drain",
              if processed = submitted then None
              else Some (Printf.sprintf "%d processed, %d submitted" processed submitted)
            );
            ( "pipeline: the AS-1 router forwarded every packet",
              if forwarded = submitted then None
              else Some (Printf.sprintf "%d of %d forwarded" forwarded submitted) );
          ] )
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rounds in
  let intents = sum (fun r -> r.intents) and granted = sum (fun r -> r.granted) in
  let calls = sum (fun r -> r.calls) and refused = sum (fun r -> r.refused) in
  let packets = sum (fun r -> r.packets) and false_dups = sum (fun r -> r.false_dups) in
  let delivered = sum (fun r -> r.delivered) - lost_in_pipe in
  Sut.drain c.sut (Array.to_list c.live);
  let verdict ok why = if ok then None else Some (why ()) in
  let expected_refusals = refusal_rate spec ~hops:c.hops *. float_of_int calls in
  let checks =
    [
      ( Printf.sprintf "every intent was granted within %d tries" host_tries,
        verdict (granted = intents) (fun () ->
            Printf.sprintf "%d of %d granted; last refusal: %s" granted intents
              (Sut.last_error c.sut)) );
      (* Under loss the default retry budget runs out now and then; the
         rate it predicts is [refusal_rate]. *)
      ( "refusals stay within the rate the retry budget predicts",
        verdict
          (float_of_int refused <= (3. *. expected_refusals) +. 3.)
          (fun () ->
            Printf.sprintf "%d of %d calls refused, %.1f expected; last refusal: %s" refused
              calls expected_refusals (Sut.last_error c.sut)) );
      ( "every packet was delivered at the last hop, or refused as a duplicate",
        verdict
          (delivered + false_dups = packets)
          (fun () ->
            Printf.sprintf
              "%d of %d delivered, %d dropped in the pipeline; drops at the gateway %d, \
               duplicates %d, other router drops %d"
              delivered packets lost_in_pipe
              (c1.gateway_drops - c0.gateway_drops)
              (c1.router_drops_duplicate - c0.router_drops_duplicate)
              (c1.router_drops_other - c0.router_drops_other)) );
      (* The routers' filters key a packet by a 30-bit hash of its
         identity, so a fresh packet collides with one of the N in the
         filter with probability ~N / 2^30: up to 1e-3 at the filter's
         design load of 1M packets per 2.1 s window (README.md). *)
      ( "duplicate-filter false positives stay within the filter's key collision rate",
        verdict
          (float_of_int false_dups <= (1e-3 *. float_of_int packets) +. 3.)
          (fun () -> Printf.sprintf "%d false positives in %d packets" false_dups packets)
      );
    ]
    @ pipe_checks
    @ [
        ( "no AS leaks admission state after the drain",
          match Sut.audit c.sut with [] -> None | e :: _ -> Some e );
        ( "no request is still pending after the drain",
          let p = Sut.retry_pending c.sut in
          verdict (p = 0) (fun () -> Printf.sprintf "%d pending" p) );
        ( "control messages: sent = delivered + lost",
          verdict (Sut.accounting_closed c.sut) (fun () -> "accounting does not close") );
      ]
    @
    if !kernels = [] then []
    else
      [
        ( "Hvf.eer_check accepts every captured packet",
          verdict
            (List.for_all (fun (k : Sut.kernels) -> k.all_valid) !kernels)
            (fun () -> "a captured packet failed validation") );
      ]
  in
  {
    spec;
    hops = c.hops;
    setup_s = times;
    heap_mb;
    rounds;
    c0;
    c1;
    packets_delivered = delivered;
    packets_failed = packets - delivered - false_dups;
    checks;
    trace = (if o.trace then Some tr else None);
    kernels = !kernels;
    walks = !walks;
    send_along_ns = !send_along;
  }
