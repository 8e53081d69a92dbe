(** The benchmark's metrics: what each means, and how it is computed
    from a workload run. [BENCHMARK.json] lists the same names and
    units; the self-test holds the two equal. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type e2e = { name : string; unit_ : string; better : better; bound : float }

(** What a host sees, from untraced rounds only. Wall-clock metrics pool
    the samples of the fastest rounds ({!steady}, {!control}), which
    damps interference from the shared host; simulated times and ratios
    pool all rounds. *)
let end_to_end =
  [
    { name = "fwd_pps"; unit_ = "1/s"; better = Higher; bound = 0.24 };
    { name = "fwd_lat_us_p50"; unit_ = "us"; better = Lower; bound = 0.24 };
    { name = "fwd_delivered_ratio"; unit_ = "ratio"; better = Higher; bound = 0.001 };
    { name = "setup_per_s"; unit_ = "1/s"; better = Higher; bound = 0.24 };
    { name = "setup_wall_us_p50"; unit_ = "us"; better = Lower; bound = 0.24 };
    { name = "setup_sim_ms_p50"; unit_ = "ms"; better = Lower; bound = 0.02 };
    { name = "setup_sim_ms_p99"; unit_ = "ms"; better = Lower; bound = 0.02 };
    { name = "setup_success_ratio"; unit_ = "ratio"; better = Higher; bound = 0.002 };
    { name = "msgs_per_setup"; unit_ = "msgs/setup"; better = Lower; bound = 0.02 };
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "heap_mb"; unit_ = "MB"; better = Lower; bound = 0.05 };
  ]

type layer = { lname : string; lunit : string; lbetter : better }

let l lname lunit lbetter = { lname; lunit; lbetter }

(** One entry per layer metric, grouped by layer module; README.md maps
    each to the end-to-end metric it should move. *)
let per_layer =
  [
    (* Gateway *)
    l "gateway.send_bytes_ns" "ns" Lower;
    l "gateway.send_bytes_minor_words" "words" Lower;
    l "gateway.drops" "count" Lower;
    l "gateway.register_ns" "ns" Lower;
    l "gateway.reservations" "count" Lower;
    (* Router and its monitors *)
    l "router.process_bytes_ns" "ns" Lower;
    l "router.process_bytes_minor_words" "words" Lower;
    l "router.drops_duplicate" "count" Lower;
    l "router.drops_other" "count" Lower;
    l "monitor.dup_filter_fill_ratio" "ratio" Lower;
    l "monitor.ofd_suspects" "count" Lower;
    (* Packet, Hvf and crypto kernels *)
    l "packet.view_parse_ns" "ns" Lower;
    l "hvf.hop_auth_into_ns" "ns" Lower;
    l "crypto.cmac_rekey_ns" "ns" Lower;
    l "hvf.eer_hvf_into_ns" "ns" Lower;
    l "hvf.eer_check_ns" "ns" Lower;
    l "router.sigma_share" "ratio" Lower;
    (* Parallel_router *)
    l "par.submit_ns" "ns" Lower;
    l "par.worker_busy_ns" "ns" Lower;
    l "par.worker_util" "ratio" Higher;
    l "par.main_util" "ratio" Lower;
    (* Deployment, Cserv, Control_net, Engine *)
    l "deployment.lookup_eer_routes_ns" "ns" Lower;
    l "deployment.setup_eer_sync_ns" "ns" Lower;
    l "cserv.make_eer_request_ns" "ns" Lower;
    l "cserv.eer_forward_ns" "ns" Lower;
    l "cserv.eer_backward_ns" "ns" Lower;
    l "cserv.process_eer_reply_ns" "ns" Lower;
    l "control_net.send_along_ns" "ns" Lower;
    l "cserv.compute_share" "ratio" Lower;
    l "net.engine_events_per_setup" "events/setup" Lower;
    (* Retry, faults, admission refusals, renewal *)
    l "retry.attempts_per_request" "ratio" Lower;
    l "retry.timeouts_per_setup" "1/setup" Lower;
    l "retry.exhausted" "count" Lower;
    l "control_net.lost_per_setup" "1/setup" Lower;
    l "cserv.eer_denied" "count" Lower;
    l "renewal.ok" "ratio" Higher;
    l "renewal.late" "ratio" Lower;
    l "renewal.degraded" "ratio" Lower;
    (* Runtime and the benchmark itself *)
    l "gc.minor_words_per_op" "words/op" Lower;
    l "gc.promoted_words_per_op" "words/op" Lower;
    l "bench.trace_overhead_pct" "%" Lower;
    l "bench.fwd_self_coverage" "ratio" Higher;
    l "bench.packet_self_ns" "ns" Lower;
  ]

(* ---------------- Computation ---------------- *)

open Workload

let untraced (r : result) = List.filter (fun (x : round) -> not x.traced) r.rounds
let traced (r : result) = List.filter (fun (x : round) -> x.traced) r.rounds
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let pooled (f : round -> float array) rounds =
  let a = Array.concat (List.map f rounds) in
  Array.sort Float.compare a;
  a

let totals (r : result) f = fi (List.fold_left (fun acc (x : round) -> acc + f x) 0 r.rounds)

(** The fastest fifth of [rounds], by iteration rate. Other tenants of
    a shared host only ever slow a round down — on a 2-vCPU guest,
    spells of several seconds at up to half speed, from contention for
    the memory system — so these rounds stand for the system's own
    speed; wall-clock metrics pool their samples. A slow-down that hits
    fewer than four fifths of the rounds can hide from them; the
    per-round rates [run] prints show it. *)
let fastest (rounds : round list) : round list =
  let sorted = List.sort (fun (a : round) (b : round) -> Float.compare b.rate a.rate) rounds in
  List.filteri (fun i _ -> i < max 1 (List.length sorted / 5)) sorted

let steady (r : result) = fastest (untraced r)

(* The rounds whose intents the control-side wall-clock metrics pool.
   A phased workload renews in only 8 rounds, and the host's slow
   spells catch three of them in a typical run and more than half in a
   bad one, at up to half speed; it pools the fastest quarter of those,
   by their renewal rate (2 phases, 60 samples). *)
let control (r : result) =
  match r.spec.shape with
  | Interleaved _ -> steady r
  | Phased _ ->
      let phases = List.filter (fun (x : round) -> x.intents > 0) (untraced r) in
      let rate (x : round) = fi x.granted /. x.ctl_s in
      let sorted = List.sort (fun a b -> Float.compare (rate b) (rate a)) phases in
      List.filteri (fun i _ -> i < max 1 (List.length sorted / 4)) sorted

let per_second (f : round -> int) (secs : round -> float) rounds =
  ratio
    (fi (List.fold_left (fun acc x -> acc + f x) 0 rounds))
    (List.fold_left (fun acc x -> acc +. secs x) 0. rounds)

(** Every end-to-end metric of a run, in {!end_to_end} order. *)
let e2e_values (r : result) : (string * float) list =
  let s = steady r and ctl = control r in
  let intents = totals r (fun (x : round) -> x.intents) in
  let packets = totals r (fun (x : round) -> x.packets) in
  let fwd = pooled (fun x -> x.fwd_lat_us) s in
  let wall = pooled (fun x -> x.setup_wall_us) ctl in
  let sim = pooled (fun x -> x.setup_sim_ms) (untraced r) in
  [
    ("fwd_pps", per_second (fun x -> x.delivered) (fun x -> x.data_s) s);
    ("fwd_lat_us_p50", Stats.percentile fwd 50.);
    ("fwd_delivered_ratio", ratio (fi r.packets_delivered) packets);
    ("setup_per_s", per_second (fun x -> x.granted) (fun x -> x.ctl_s) ctl);
    ("setup_wall_us_p50", Stats.percentile wall 50.);
    ("setup_sim_ms_p50", Stats.percentile sim 50.);
    ("setup_sim_ms_p99", Stats.percentile sim 99.);
    ( "setup_success_ratio",
      ratio (totals r (fun (x : round) -> x.granted)) (totals r (fun (x : round) -> x.calls))
    );
    ("msgs_per_setup", ratio (fi (r.c1.msgs_sent - r.c0.msgs_sent)) intents);
    ("setup_s", Stats.median r.setup_s);
    ("heap_mb", r.heap_mb);
  ]

(** How many samples each latency metric's percentiles come from. *)
let samples (r : result) : (string * int) list =
  let n f rounds = List.fold_left (fun acc x -> acc + Array.length (f x)) 0 rounds in
  [
    ("fwd_lat_us", n (fun x -> x.fwd_lat_us) (steady r));
    ("setup_wall_us", n (fun x -> x.setup_wall_us) (control r));
    ("setup_sim_ms", n (fun x -> x.setup_sim_ms) (untraced r));
  ]

let stat (spans : (string * Trace.stat) list) (name : string) : Trace.stat option =
  List.assoc_opt name spans

let self_p50 spans name =
  match stat spans name with Some s -> s.Trace.self_p50 | None -> 0.

let dur_p50 spans name = match stat spans name with Some s -> s.Trace.dur_p50 | None -> 0.

(** What the derived shares need besides the spans; a span file
    carries it in its header so [report] can recompute them. *)
type share_inputs = {
  hops : int;
  pipeline : bool;
  fwd_lat_us_p50 : float;  (** untraced *)
  sigma_ns : float;  (** [hop_auth_into] + [cmac_rekey] *)
  compute_ns : float;  (** one instantaneous walk, all stages *)
  worker_ns : float;  (** pipeline worker's busy time per packet *)
  untraced_rate : float;  (** iterations per second *)
  traced_rate : float;
}

let router_ns spans (i : share_inputs) =
  if i.pipeline then i.worker_ns else self_p50 spans "router.process_bytes"

(** The shares a traced run derives: σ re-derivation's share of the
    router, CServ compute's share of an intent (the rest is transport,
    engine, and retry waiting), the share of the untraced packet
    latency the layer spans explain, and the cost of tracing. *)
let shares spans (i : share_inputs) : (string * float) list =
  let layers_ns =
    self_p50 spans "gateway.send_bytes"
    +.
    if i.pipeline then self_p50 spans "par.submit"
    else fi i.hops *. self_p50 spans "router.process_bytes"
  in
  [
    ("router.sigma_share", ratio i.sigma_ns (router_ns spans i));
    ("cserv.compute_share", ratio i.compute_ns (dur_p50 spans "deployment.setup_eer_sync"));
    ("bench.fwd_self_coverage", ratio layers_ns (i.fwd_lat_us_p50 *. 1e3));
    ("bench.trace_overhead_pct", 100. *. (ratio i.untraced_rate i.traced_rate -. 1.));
  ]

(* The best batch of a microbenchmark: host interference only adds
   time. [0.] when none ran (untraced runs). *)
let best (f : 'a -> float) (xs : 'a list) : float =
  match xs with
  | [] -> 0.
  | x :: rest -> List.fold_left (fun m y -> Float.min m (f y)) (f x) rest

let kernel (r : result) (f : Sut.kernels -> float) = best f r.kernels

(* One kernel's cost: the best batch of the step that ends with it,
   less the best batch of the step before. *)
let parse_ns r = kernel r (fun k -> k.parse)
let auth_ns r = kernel r (fun k -> k.auth) -. parse_ns r
let rekey_ns r = kernel r (fun k -> k.rekey) -. kernel r (fun k -> k.auth)

let walk_ns (r : result) =
  let w f = best f r.walks in
  ( w (fun w -> w.make_eer_request),
    w (fun w -> w.eer_forward),
    w (fun w -> w.eer_backward),
    w (fun w -> w.process_eer_reply),
    w (fun w -> w.register) )

let share_inputs (r : result) : share_inputs =
  let rate rounds =
    Stats.median (List.map (fun (x : round) -> x.rate) (fastest rounds))
  in
  let make, fwd, back, reply, register = walk_ns r in
  {
    hops = r.hops;
    pipeline = r.spec.pipeline;
    fwd_lat_us_p50 = Stats.percentile (pooled (fun x -> x.fwd_lat_us) (steady r)) 50.;
    sigma_ns = auth_ns r +. rekey_ns r;
    compute_ns = make +. fwd +. back +. reply +. register;
    worker_ns =
      (let s = steady r in
       ratio
         (fi (List.fold_left (fun acc (x : round) -> acc + x.busy_ns) 0 s))
         (fi (List.fold_left (fun acc (x : round) -> acc + x.delivered) 0 s)));
    untraced_rate = rate (untraced r);
    traced_rate = rate (traced r);
  }

(** The spans per-layer span metrics summarize, picked as the
    end-to-end metrics pick rounds: the iterations of the fastest fifth
    of the traced rounds, and every traced renewal phase. *)
let steady_spans (r : result) =
  let t = traced r in
  List.map (fun (x : round) -> x.spans) (fastest t) @ List.map (fun x -> x.ctl_spans) t

(** Every per-layer metric of a traced run, in {!per_layer} order. *)
let layer_values (r : result) : (string * float) list =
  let spans =
    match r.trace with
    | Some t -> Trace.summarize ~ranges:(steady_spans r) t
    | None -> []
  in
  let i = share_inputs r in
  let sh = shares spans i in
  let share name = List.assoc name sh in
  let words name = match stat spans name with Some s -> s.words_mean | None -> 0. in
  let c0 = r.c0 and c1 = r.c1 in
  let intents = totals r (fun (x : round) -> x.intents) in
  let per_intent a b = ratio (fi (a - b)) intents in
  let wall_ns = 1e9 *. List.fold_left (fun acc (x : round) -> acc +. x.data_s) 0. r.rounds in
  let pipe v = if r.spec.pipeline then v else 0. in
  let make, fwd, back, reply, register = walk_ns r in
  let renewals = fi (c1.renew_started - c0.renew_started) in
  let u = untraced r in
  let uwords = List.fold_left (fun acc (x : round) -> acc +. x.minor_words) 0. u in
  let upromoted = List.fold_left (fun acc (x : round) -> acc +. x.promoted_words) 0. u in
  let uops = fi (List.fold_left (fun acc (x : round) -> acc + x.packets + x.intents) 0 u) in
  [
    ("gateway.send_bytes_ns", self_p50 spans "gateway.send_bytes");
    ("gateway.send_bytes_minor_words", words "gateway.send_bytes");
    ("gateway.drops", fi (c1.gateway_drops - c0.gateway_drops));
    ("gateway.register_ns", register);
    ("gateway.reservations", fi c1.gateway_reservations);
    ("router.process_bytes_ns", router_ns spans i);
    ("router.process_bytes_minor_words", words "router.process_bytes");
    ("router.drops_duplicate", fi (c1.router_drops_duplicate - c0.router_drops_duplicate));
    ("router.drops_other", fi (c1.router_drops_other - c0.router_drops_other));
    ("monitor.dup_filter_fill_ratio", c1.dup_fill_ratio);
    ("monitor.ofd_suspects", fi (c1.ofd_suspects - c0.ofd_suspects));
    ("packet.view_parse_ns", parse_ns r);
    ("hvf.hop_auth_into_ns", auth_ns r);
    ("crypto.cmac_rekey_ns", rekey_ns r);
    ("hvf.eer_hvf_into_ns", kernel r (fun k -> k.hvf));
    ("hvf.eer_check_ns", kernel r (fun k -> k.check) -. parse_ns r);
    ("router.sigma_share", share "router.sigma_share");
    ("par.submit_ns", self_p50 spans "par.submit");
    ("par.worker_busy_ns", pipe i.worker_ns);
    ("par.worker_util", pipe (ratio (totals r (fun (x : round) -> x.busy_ns)) wall_ns));
    ( "par.main_util",
      pipe (1. -. ratio (totals r (fun (x : round) -> x.wait_ns)) wall_ns) );
    ("deployment.lookup_eer_routes_ns", dur_p50 spans "deployment.lookup_eer_routes");
    ("deployment.setup_eer_sync_ns", dur_p50 spans "deployment.setup_eer_sync");
    ("cserv.make_eer_request_ns", make);
    ("cserv.eer_forward_ns", fwd);
    ("cserv.eer_backward_ns", back);
    ("cserv.process_eer_reply_ns", reply);
    ("control_net.send_along_ns", best Fun.id r.send_along_ns);
    ("cserv.compute_share", share "cserv.compute_share");
    ("net.engine_events_per_setup", per_intent c1.engine_events c0.engine_events);
    ( "retry.attempts_per_request",
      ratio (fi (c1.retry_attempts - c0.retry_attempts))
        (fi (c1.retry_requests - c0.retry_requests)) );
    ("retry.timeouts_per_setup", per_intent c1.retry_timeouts c0.retry_timeouts);
    ("retry.exhausted", fi (c1.retry_exhausted - c0.retry_exhausted));
    ("control_net.lost_per_setup", per_intent c1.msgs_lost c0.msgs_lost);
    ("cserv.eer_denied", fi (c1.eer_denied - c0.eer_denied));
    ("renewal.ok", ratio (fi (c1.renew_ok - c0.renew_ok)) renewals);
    ("renewal.late", ratio (fi (c1.renew_late - c0.renew_late)) renewals);
    ("renewal.degraded", ratio (fi (c1.renew_degraded - c0.renew_degraded)) renewals);
    ("gc.minor_words_per_op", ratio uwords uops);
    ("gc.promoted_words_per_op", ratio upromoted uops);
    ("bench.trace_overhead_pct", share "bench.trace_overhead_pct");
    ("bench.fwd_self_coverage", share "bench.fwd_self_coverage");
    ("bench.packet_self_ns", self_p50 spans "packet");
  ]
