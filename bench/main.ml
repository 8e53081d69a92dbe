(** Benchmark harness regenerating every table and figure of the
    paper's evaluation (§6–§7, Appendix E), plus the scalability
    ablation against the IntServ backend.

    Run with no arguments to produce all tables;
    [fig3|fig4|fig5|fig6|table2|appE|ablation] select one;
    [bechamel] runs the Bechamel micro-benchmark suite (one
    [Test.make] per table/figure);
    [--quick] shrinks the grids for fast smoke runs.

    Absolute numbers are far below the paper's (software AES vs.
    AES-NI + DPDK; see DESIGN.md §3) — the reproduced claims are the
    {e shapes}: admission time flat in the number of reservations,
    gateway cost growing with path length and degrading with cache
    pressure, router statelessness, near-linear multi-core scaling,
    and the three protection phases of Table 2. *)

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

(* ------------------------------------------------------------------ *)
(* Metrics export: every benchmark records the telemetry snapshots of   *)
(* its rigs (DESIGN.md §7); the collected sections are written as one   *)
(* JSON object next to the timing output when the run finishes.         *)
(* ------------------------------------------------------------------ *)

let metric_sections : (string * Obs.snapshot) list ref = ref []

let record_metrics (name : string) (snap : Obs.snapshot) =
  metric_sections := (name, snap) :: !metric_sections

let write_metrics () =
  match List.rev !metric_sections with
  | [] -> ()
  | sections ->
      let path = "colibri-metrics.json" in
      let oc = open_out path in
      output_string oc "{";
      List.iteri
        (fun i (name, snap) ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc "%S:%s" name (Obs.to_json snap))
        sections;
      output_string oc "}\n";
      close_out oc;
      Printf.printf "\nMetrics snapshot written to %s (%d section%s)\n" path
        (List.length sections)
        (if List.length sections = 1 then "" else "s")

(* Headline summary: the wire-path numbers CI and the docs track
   (gateway/router throughput and allocation budget), written as flat
   JSON at the repo root where [dune exec bench/main.exe] runs. *)

let summary : (string * float) list ref = ref []
let record_summary (key : string) (v : float) = summary := (key, v) :: !summary

(* Selective runs ([main.exe par], [main.exe backends]) must not drop
   the other modes' keys from the committed ledger: carry over every
   existing key this run did not re-record. The file is the flat shape
   written below, so a line-wise parse suffices. *)
let existing_summary (path : string) : (string * float) list =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let pairs = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         match String.index_opt line '"' with
         | None -> ()
         | Some q0 -> (
             match String.index_from_opt line (q0 + 1) '"' with
             | None -> ()
             | Some q1 -> (
                 let key = String.sub line (q0 + 1) (q1 - q0 - 1) in
                 match String.index_from_opt line q1 ':' with
                 | None -> ()
                 | Some c ->
                     let v =
                       String.trim
                         (String.sub line (c + 1) (String.length line - c - 1))
                     in
                     let v =
                       if String.length v > 0 && v.[String.length v - 1] = ',' then
                         String.sub v 0 (String.length v - 1)
                       else v
                     in
                     (match float_of_string_opt v with
                     | Some f -> pairs := (key, f) :: !pairs
                     | None -> ())))
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !pairs
  end

let write_summary () =
  match List.rev !summary with
  | [] -> ()
  | kvs ->
      let path = "BENCH_colibri.json" in
      let carried =
        List.filter
          (fun (k, _) -> not (List.mem_assoc k kvs))
          (existing_summary path)
      in
      let kvs = carried @ kvs in
      let oc = open_out path in
      output_string oc "{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc "\n  %S: %.4f" k v)
        kvs;
      output_string oc "\n}\n";
      close_out oc;
      Printf.printf "Benchmark summary written to %s (%d entr%s)\n" path
        (List.length kvs)
        (if List.length kvs = 1 then "y" else "ies")

(* ------------------------------------------------------------------ *)
(* Fig. 3: SegR admission latency.                                     *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  Measure.print_header
    "Fig. 3: SegR admission processing time vs existing SegRs (same interface pair)";
  let counts = if quick then [ 0; 1000; 4000 ] else [ 0; 2000; 4000; 6000; 8000; 10_000 ] in
  let ratios = [ 0.0; 0.1; 0.5; 0.9 ] in
  Printf.printf "%-12s" "#SegRs";
  List.iter (fun r -> Printf.printf "ratio=%-12.1f" r) ratios;
  print_newline ();
  List.iter
    (fun existing ->
      Printf.printf "%-12d" existing;
      List.iter
        (fun ratio ->
          let rig = Workloads.fig3 ~existing ~ratio in
          let stats = Measure.latency ~samples:100 rig.probe in
          Printf.printf "%7.1f±%-6.1fus " stats.mean_us stats.stderr_us)
        ratios;
      print_newline ())
    counts;
  print_newline ();
  Printf.printf
    "Paper: flat in #SegRs and ratio, <=1500us/admission (>=800 req/s/core).\n"

(* ------------------------------------------------------------------ *)
(* Fig. 4: EER admission latency.                                      *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  Measure.print_header
    "Fig. 4: EER admission processing time at a transit AS vs existing EERs";
  let counts =
    if quick then [ 10; 1000 ] else [ 10; 100; 1000; 10_000; 100_000 ]
  in
  let s_values = if quick then [ 1; 1000 ] else [ 1; 5000; 10_000 ] in
  Printf.printf "%-12s" "#EERs";
  List.iter (fun s -> Printf.printf "s=%-16d" s) s_values;
  print_newline ();
  List.iter
    (fun existing ->
      Printf.printf "%-12d" existing;
      List.iter
        (fun s ->
          let rig = Workloads.fig4 ~existing ~segrs_same_source:s in
          let stats = Measure.latency ~samples:100 rig.probe in
          Printf.printf "%7.1f±%-6.1fus " stats.mean_us stats.stderr_us)
        s_values;
      print_newline ())
    counts;
  print_newline ();
  Printf.printf
    "Paper: flat in #EERs and s, <=500us/admission (>2000 req/s/core).\n"

(* ------------------------------------------------------------------ *)
(* Fig. 5: gateway forwarding performance.                             *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  Measure.print_header
    "Fig. 5: gateway forwarding (Mpps, 1 core) vs on-path ASes and reservations r";
  let path_lens = [ 2; 4; 8; 16 ] in
  let r_values =
    if quick then [ 1; 1 lsl 10; 1 lsl 15 ]
    else [ 1; 1 lsl 10; 1 lsl 15; 1 lsl 17; 1 lsl 20 ]
  in
  let sends = if quick then 20_000 else 50_000 in
  Printf.printf "%-10s" "#ASes";
  List.iter (fun r -> Printf.printf "r=2^%-10.0f" (Float.round (log (float_of_int r) /. log 2.))) r_values;
  print_newline ();
  let last_snap = ref [] in
  List.iter
    (fun path_len ->
      Printf.printf "%-10d" path_len;
      List.iter
        (fun reservations ->
          let rig = Workloads.gateway_rig ~path_len ~reservations () in
          let rate = Measure.throughput ~n:sends rig.send in
          Printf.printf "%9.4f Mpps " (Measure.mpps rate);
          last_snap := Obs.Registry.snapshot (Colibri.Gateway.metrics rig.gateway);
          (* Encourage prompt release of the big tables. *)
          Gc.compact ())
        r_values;
      print_newline ())
    path_lens;
  record_metrics "fig5/gateway" !last_snap;
  print_newline ();
  Printf.printf
    "Paper shape: decreasing in path length (more MACs) and in r (cache misses);\n\
     paper absolute: ~2.3 Mpps at 2 ASes/r=1 down to ~0.4 Mpps at 16 ASes/r=2^20.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 6: multi-core scaling of gateway and border router.            *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  Measure.print_header
    "Fig. 6: gateway (r=2^15, 4 ASes) and border-router scaling with cores";
  let cores = [ 1; 2; 4; 8; 16 ] in
  let sends = if quick then 20_000 else 50_000 in
  (* Single-core measured rates. *)
  let gw_rig = Workloads.gateway_rig ~path_len:4 ~reservations:(1 lsl 15) () in
  let gw_rate = Measure.throughput ~n:sends gw_rig.send in
  let br_rig = Workloads.router_rig ~path_len:4 ~distinct_packets:4096 () in
  let br_rate = Measure.throughput ~n:sends br_rig.process in
  record_metrics "fig6/gateway" (Obs.Registry.snapshot (Colibri.Gateway.metrics gw_rig.gateway));
  record_metrics "fig6/border_router"
    (Obs.Registry.snapshot (Colibri.Router.metrics br_rig.router));
  (* Gateway and router are shared-nothing, so k cores run k
     independent instances (DESIGN.md §3: this container has one core;
     the k-core numbers below are the measured single-core rate times
     k, the linear model the paper confirms). The [par] mode measures
     the parallel router's real 1/2/4-worker curve. *)
  Printf.printf "%-8s %-22s %-22s\n" "cores" "Gateway [Mpps]" "Border router [Mpps]";
  List.iter
    (fun k ->
      Printf.printf "%-8d %-22.4f %-22.4f\n" k
        (Measure.mpps (gw_rate *. float_of_int k))
        (Measure.mpps (br_rate *. float_of_int k)))
    cores;
  print_newline ();
  Printf.printf
    "Model: single-core measured rate x cores (shared-nothing instances; see DESIGN.md).\n\
     Paper: near-linear, BR 34.4 Mpps and GW 18.7 Mpps at 16 cores.\n\
     Measured BR/GW single-core ratio here: %.2fx (paper: ~1.8x).\n"
    (br_rate /. gw_rate)

(* ------------------------------------------------------------------ *)
(* Appendix E: payload-size independence.                               *)
(* ------------------------------------------------------------------ *)

let app_e () =
  Measure.print_header
    "App. E: forwarding vs payload size (gateway r=2^15; router stateless)";
  let payloads = [ 0; 100; 500; 1000; 1500 ] in
  let sends = if quick then 20_000 else 50_000 in
  Printf.printf "%-14s %-20s %-20s\n" "payload [B]" "Gateway [Mpps]" "Router [Mpps]";
  (* Best of two runs per cell: the first run after building a 2^15
     table pays one-off page faults that would masquerade as a payload
     effect. *)
  let best f = Float.max (Measure.throughput ~n:sends f) (Measure.throughput ~n:sends f) in
  List.iter
    (fun payload_len ->
      let gw = Workloads.gateway_rig ~payload_len ~path_len:4 ~reservations:(1 lsl 15) () in
      let gw_rate = best gw.send in
      let br = Workloads.router_rig ~payload_len ~path_len:4 ~distinct_packets:4096 () in
      let br_rate = best br.process in
      Printf.printf "%-14d %-20.4f %-20.4f\n" payload_len (Measure.mpps gw_rate)
        (Measure.mpps br_rate);
      Gc.compact ())
    payloads;
  print_newline ();
  Printf.printf "Paper: forwarding rate independent of payload size for both components.\n"

(* ------------------------------------------------------------------ *)
(* Ablation: Colibri vs IntServ control-plane scalability; monitoring  *)
(* cost on the router fast path.                                        *)
(* ------------------------------------------------------------------ *)

let ablation () =
  Measure.print_header
    "Ablation 1: admission latency vs installed reservations (Colibri vs IntServ)";
  let counts = if quick then [ 0; 2000 ] else [ 0; 2000; 4000; 6000; 8000; 10_000 ] in
  Printf.printf "%-12s %-22s %-22s\n" "#existing" "Colibri SegR [us]" "IntServ/RSVP [us]";
  List.iter
    (fun existing ->
      let colibri = Workloads.fig3 ~existing ~ratio:0.1 in
      let c = Measure.latency ~samples:100 colibri.probe in
      (* IntServ: the backend scans its per-flow list on each admission. *)
      let intserv =
        Backends.Intserv_backend.factory.make
          ~capacity:(fun _ -> Colibri_types.Bandwidth.of_gbps 400_000.) ()
      in
      let src = Colibri_types.Ids.asn ~isd:1 ~num:1 in
      let admit res_id =
        ignore
          (Backends.Backend_intf.admit_seg intserv ~now:0.
             ~req:
               {
                 key = { src_as = src; res_id };
                 version = 1;
                 src;
                 ingress = 0;
                 egress = 1;
                 demand = Colibri_types.Bandwidth.of_mbps 1.;
                 min_bw = Colibri_types.Bandwidth.zero;
                 exp_time = 1e9;
               })
      in
      for i = 1 to existing do admit i done;
      let j = ref existing in
      let s =
        Measure.latency ~samples:100 (fun _ ->
            incr j;
            admit !j)
      in
      Printf.printf "%-12d %8.1f±%-12.1f %8.1f±%-12.1f\n" existing c.mean_us
        c.stderr_us s.mean_us s.stderr_us)
    counts;
  Printf.printf
    "\nColibri stays flat (memoized aggregates); IntServ grows linearly (per-flow scan).\n";
  Measure.print_header
    "Ablation 2: router fast-path cost of monitoring (OFD + duplicate filter)";
  let sends = if quick then 20_000 else 50_000 in
  (* Take the best of three fresh rigs per configuration, so frequency
     scaling and GC noise cannot invert the comparison (a fresh rig per
     repetition also keeps the duplicate filter from seeing replays of
     its own measurement traffic). *)
  let best mk =
    List.fold_left Float.max 0.
      (List.init 3 (fun _ ->
           let rig : Workloads.router_rig = mk () in
           Measure.throughput ~n:sends rig.process))
  in
  let bare_rate = best (fun () -> Workloads.router_rig ~path_len:4 ~distinct_packets:65536 ()) in
  let mon_rate =
    best (fun () ->
        Workloads.router_rig ~monitoring:true ~path_len:4 ~distinct_packets:65536 ())
  in
  Printf.printf "%-28s %-14s\n" "router configuration" "Mpps";
  Printf.printf "%-28s %-14.4f\n" "bare fast path (paper's)" (Measure.mpps bare_rate);
  Printf.printf "%-28s %-14.4f\n" "with OFD + dup filter" (Measure.mpps mon_rate);
  Printf.printf "Monitoring overhead: %.1f%%\n"
    (100. *. (1. -. (mon_rate /. bare_rate)))

(* ------------------------------------------------------------------ *)
(* GC accounting: minor words allocated per packet on the wire path.   *)
(* ------------------------------------------------------------------ *)

let gc_mode () =
  Measure.print_header
    "GC: minor-heap words per packet on the data-plane wire path (after warm-up)";
  let sends = if quick then 10_000 else 50_000 in
  Printf.printf "%-34s %-18s %-14s\n" "component" "minor words/pkt" "Mpps";
  let row key name mk_run =
    (* Fresh rig per metric so the allocation count is not polluted by
       the other measurement's warm-up. *)
    let words = Measure.minor_words_per_run ~n:sends (mk_run ()) in
    let rate = Measure.throughput ~n:sends (mk_run ()) in
    record_summary (key ^ "_minor_words_per_pkt") words;
    record_summary (key ^ "_mpps") (Measure.mpps rate);
    Printf.printf "%-34s %-18.3f %-14.4f\n" name words (Measure.mpps rate)
  in
  row "router_bare" "router process_bytes (EER, bare)" (fun () ->
      (Workloads.router_rig ~path_len:4 ~distinct_packets:4096 ()).process);
  (* 2^16 distinct packets: the duplicate filter must never see a
     replay of the measurement traffic itself. *)
  row "router_monitored" "router process_bytes (EER, monitored)" (fun () ->
      (Workloads.router_rig ~monitoring:true ~path_len:4 ~distinct_packets:65536 ())
        .process);
  row "gateway" "gateway send (r=2^15)" (fun () ->
      (Workloads.gateway_rig ~path_len:4 ~reservations:(1 lsl 15) ()).send);
  row "gateway_1500b" "gateway send (r=2^15, 1500B)" (fun () ->
      (Workloads.gateway_rig ~payload_len:1500 ~path_len:4 ~reservations:(1 lsl 15) ())
        .send);
  print_newline ();
  Printf.printf
    "Target (DESIGN.md §8): only the verdict's result cells, 4 words/pkt,\n\
     which the bare and the monitored router meet. The gateway measured\n\
     39 words/pkt when this was written; ROADMAP item 3 brings it down.\n"

(* ------------------------------------------------------------------ *)
(* Par: the multicore substrate — SPSC ring transfer and the parallel  *)
(* router at 1 vs 2 domains (ROADMAP multicore item; DESIGN.md §11).   *)
(* ------------------------------------------------------------------ *)

let par_mode () =
  Measure.print_header
    "Par: SPSC ring transfer and the parallel-router 1/2/4-worker scaling curve";
  let xfers = if quick then 200_000 else 1_000_000 in
  (* On a stalled ring (full for the producer, empty for the consumer)
     the bench loops yield the core with a short [Unix.sleepf] instead
     of burning the rest of the OS quantum in [cpu_relax]: on the
     single-core CI container the opposite side can only make progress
     once the scheduler runs it, and a stall means at least a
     ring-capacity-worth of work is waiting on the other side. The lib
     spin paths keep their pure [cpu_relax] (domaincheck d9 — no
     blocking calls in hot spawn closures); the backoff policy belongs
     to the driver. *)
  let stall_backoff () = Unix.sleepf 1e-6 in
  (* 1 domain: the same domain alternates push and pop — the cost of
     the ring machinery without inter-domain cache traffic. *)
  let ring_1d () =
    let r = Par.Spsc_ring.create ~check:false ~dummy:0 1024 in
    let t0 = Measure.now_ns () in
    for i = 0 to xfers - 1 do
      Par.Spsc_ring.push_spin r i;
      ignore (Par.Spsc_ring.pop_spin r)
    done;
    let dt = Int64.to_float (Int64.sub (Measure.now_ns ()) t0) /. 1e9 in
    float_of_int xfers /. dt
  in
  (* 2 domains, element-at-a-time: a spawned producer streams into the
     ring while the orchestrator pops; the measured window includes the
     spawn, which amortizes over the transfer count. *)
  let ring_2d () =
    let r = Par.Spsc_ring.create ~check:false ~dummy:0 1024 in
    let t0 = Measure.now_ns () in
    let producer =
      Domain.spawn (fun () ->
          for i = 0 to xfers - 1 do
            while not (Par.Spsc_ring.try_push r i) do
              stall_backoff ()
            done
          done)
    in
    for _ = 0 to xfers - 1 do
      while Par.Spsc_ring.try_pop r = None do
        stall_backoff ()
      done
    done;
    let dt = Int64.to_float (Int64.sub (Measure.now_ns ()) t0) /. 1e9 in
    Domain.join producer;
    float_of_int xfers /. dt
  in
  (* 2 domains, batched: [push_n]/[pop_into] move 256-element bursts,
     so one acquire/release pair and one cached-index refresh cover
     the burst. *)
  let ring_2d_batched () =
    let burst = 256 in
    let r = Par.Spsc_ring.create ~check:false ~dummy:0 1024 in
    let t0 = Measure.now_ns () in
    let producer =
      Domain.spawn (fun () ->
          let src = Array.init burst (fun i -> i) in
          let sent = ref 0 in
          while !sent < xfers do
            let want = min burst (xfers - !sent) in
            let n = Par.Spsc_ring.push_n r src ~pos:0 ~len:want in
            if n = 0 then stall_backoff () else sent := !sent + n
          done)
    in
    let dst = Array.make burst 0 in
    let got = ref 0 in
    while !got < xfers do
      let want = min burst (xfers - !got) in
      let n = Par.Spsc_ring.pop_into r dst ~pos:0 ~len:want in
      if n = 0 then stall_backoff () else got := !got + n
    done;
    let dt = Int64.to_float (Int64.sub (Measure.now_ns ()) t0) /. 1e9 in
    Domain.join producer;
    float_of_int xfers /. dt
  in
  let r1 = ring_1d () in
  let r2 = ring_2d () in
  let r2b = ring_2d_batched () in
  Printf.printf "%-38s %-14.2f\n" "ring transfer, 1 domain [Mxfer/s]" (r1 /. 1e6);
  Printf.printf "%-38s %-14.2f\n" "ring transfer, 2 domains [Mxfer/s]" (r2 /. 1e6);
  Printf.printf "%-38s %-14.2f\n" "ring transfer, 2 dom batched [Mxfer/s]"
    (r2b /. 1e6);
  Printf.printf "batched vs unbatched: %.2fx\n" (r2b /. r2);
  record_summary "par_ring_1d_mxfers" (r1 /. 1e6);
  record_summary "par_ring_2d_mxfers" (r2 /. 1e6);
  record_summary "par_ring_2d_batched_mxfers" (r2b /. 1e6);
  record_summary "par_ring_batch_x" (r2b /. r2);
  (* Parallel router scaling curve. Two families of keys:

     - [par_router_{k}w_wall_mpps]: wall-clock submit-to-drained rate.
       Faithful parallelism only when the host actually has k+1 cores;
       on the single-core CI container it measures interleaving.
     - [par_router_{k}w_mpps] (headline): on a multicore host, the
       wall-clock rate; on a single-core host, the shared-nothing
       projection of DESIGN.md §3 — the same substitution fig6 makes —
       computed from measured per-packet component costs:
       [min(1/submit_ns, k/busy_ns)] where [submit_ns] is the
       orchestrator's cost to dispatch+copy+hand over one packet
       (measured with no worker running) and [busy_ns] is the worker's
       per-packet processing time measured in the 1-worker run. The
       1-worker busy figure prices the projection for every k: worker
       state is disjoint by construction, and busy time measured while
       k competing domains time-share one core would double-count the
       preemption the projection exists to remove.

     [par_router_scaling_x] is headline_2w / headline_1w, so on real
     multicore it reverts to the honest wall-clock ratio. *)
  let sends = if quick then 20_000 else 50_000 in
  let module PR = Colibri.Dataplane_shard.Parallel_router in
  (* Orchestrator-only component: submit into a router whose worker
     pool has already been joined — packets queue in the rings, nobody
     pops, so the loop prices dispatch + blit + ring handover alone.
     Stops at ring capacity, well before backpressure could block. *)
  let submit_ns_per_pkt =
    let rig =
      Workloads.par_router_rig ~workers:1 ~ring_capacity:128
        ~path_len:4 ~distinct_packets:4096 ()
    in
    let pr = rig.Workloads.par_router in
    PR.shutdown pr;
    let n = 4096 in
    let t0 = Measure.now_ns () in
    let accepted =
      PR.submit_batch pr ~raws:rig.Workloads.batch
        ~payload_lens:rig.Workloads.plens ~pos:0 ~len:n
    in
    let dt = Int64.to_float (Int64.sub (Measure.now_ns ()) t0) in
    dt /. float_of_int (max 1 accepted)
  in
  let router_rate workers =
    let rig =
      Workloads.par_router_rig ~workers ~path_len:4 ~distinct_packets:4096 ()
    in
    let pr = rig.Workloads.par_router in
    let batch = rig.Workloads.batch in
    let t0 = Measure.now_ns () in
    for i = 0 to sends - 1 do
      let raw = batch.(i mod Array.length batch) in
      while not (PR.submit pr ~raw ~payload_len:rig.Workloads.payload_len) do
        stall_backoff ()
      done
    done;
    PR.drain pr;
    let dt = Int64.to_float (Int64.sub (Measure.now_ns ()) t0) /. 1e9 in
    PR.shutdown pr;
    record_metrics
      (Printf.sprintf "par/router_%dw" workers)
      (PR.metrics pr);
    let busy = ref 0 in
    for i = 0 to workers - 1 do
      busy := !busy + PR.worker_busy_ns pr i
    done;
    let busy_ns_per_pkt = float_of_int !busy /. float_of_int sends in
    let wall = float_of_int sends /. dt in
    (wall, busy_ns_per_pkt)
  in
  let multicore k = Domain.recommended_domain_count () > k in
  let curve = List.map (fun k -> (k, router_rate k)) [ 1; 2; 4 ] in
  let busy1 = snd (List.assoc 1 curve) in
  (* Shared-nothing projection (packets/s): the orchestrator feeds at
     1/submit_ns; k workers drain at k/busy1; the pipeline runs at the
     slower stage. *)
  let projected k =
    1e9 /. Float.max submit_ns_per_pkt (busy1 /. float_of_int k)
  in
  Printf.printf "%-10s %-16s %-16s %-16s %s\n" "workers" "wall [Mpps]"
    "projected [Mpps]" "busy [ns/pkt]" "headline";
  let headline =
    List.map
      (fun (k, (wall, busy)) ->
        let h = if multicore k then wall else projected k in
        Printf.printf "%-10d %-16.4f %-16.4f %-16.0f %.4f\n" k
          (Measure.mpps wall)
          (Measure.mpps (projected k))
          busy (Measure.mpps h);
        record_summary (Printf.sprintf "par_router_%dw_wall_mpps" k)
          (Measure.mpps wall);
        record_summary (Printf.sprintf "par_router_%dw_mpps" k)
          (Measure.mpps h);
        (k, h))
      curve
  in
  let h1 = List.assoc 1 headline and h2 = List.assoc 2 headline in
  Printf.printf
    "submit cost: %.0f ns/pkt; worker cost: %.0f ns/pkt; 2-worker scaling: %.2fx\n"
    submit_ns_per_pkt busy1 (h2 /. h1);
  record_summary "par_router_submit_ns" submit_ns_per_pkt;
  record_summary "par_router_busy_ns" busy1;
  record_summary "par_router_scaling_x" (h2 /. h1);
  if not (multicore 1) then
    Printf.printf
      "\nShape caveat (DESIGN.md §3): this host exposes %d core(s), so the\n\
       headline par_router_*_mpps keys are the shared-nothing projection from\n\
       measured per-stage costs (the substitution fig6 already makes); the\n\
       par_router_*w_wall_mpps keys record the honest single-core wall clock.\n\
       On a >=2-core host the headline keys switch to wall clock automatically.\n"
      (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* DoC protection (§5.3): control-message latency under link floods.   *)
(* ------------------------------------------------------------------ *)

let doc () =
  Measure.print_header
    "§5.3 DoC: control-message latency (ms) under best-effort link floods";
  let gbps = Colibri_types.Bandwidth.of_gbps in
  let flood_factors = [ 0.; 0.5; 1.; 2.; 4. ] in
  let cn_snaps = ref [] in
  Printf.printf "%-14s %-22s %-22s\n" "flood [x cap]" "prioritized control"
    "unprotected (BE)";
  List.iter
    (fun factor ->
      let run cls =
        let topo = Colibri_topology.Topology_gen.linear ~n:3 ~capacity:(gbps 1.) in
        let engine = Net.Engine.create () in
        let cn = Colibri.Control_net.create ~engine topo in
        let flood_src =
          if factor > 0. then
            Some
              (Colibri.Control_net.flood cn
                 ~src:(Colibri_types.Ids.asn ~isd:1 ~num:1)
                 ~dst:(Colibri_types.Ids.asn ~isd:1 ~num:2)
                 ~rate:(gbps factor) ())
          else None
        in
        Net.Engine.run engine ~until:0.2;
        let route =
          [
            Colibri_types.Ids.asn ~isd:1 ~num:1;
            Colibri_types.Ids.asn ~isd:1 ~num:2;
            Colibri_types.Ids.asn ~isd:1 ~num:3;
          ]
        in
        let r =
          Colibri.Control_net.measure_latency cn ~route ~cls ~bytes:500 ~timeout:2.0
        in
        Option.iter Net.Source.stop flood_src;
        cn_snaps := Obs.Registry.snapshot (Colibri.Control_net.metrics cn) :: !cn_snaps;
        r
      in
      let show = function
        | Some l -> Printf.sprintf "%.2f ms" (1000. *. l)
        | None -> "LOST"
      in
      Printf.printf "%-14.1f %-22s %-22s\n" factor
        (show (run Net.Traffic_class.Colibri_control))
        (show (run Net.Traffic_class.Best_effort)))
    flood_factors;
  Printf.printf
    "\nPrioritized control traffic (App. B) is flood-immune; naive best-effort\n\
     requests starve once the link saturates - the DoC attack of §5.3.\n";
  record_metrics "doc/control_net" (Obs.merge !cn_snaps)

(* ------------------------------------------------------------------ *)
(* Faults: retry overhead of the reliable control plane under loss.    *)
(* ------------------------------------------------------------------ *)

let faults_mode () =
  Measure.print_header
    "Faults: SegR setup cost under per-link loss (simulated time, retry layer)";
  let gbps = Colibri_types.Bandwidth.of_gbps in
  let mbps = Colibri_types.Bandwidth.of_mbps in
  let setups = if quick then 40 else 150 in
  let run ~loss =
    let topo = Colibri_topology.Topology_gen.linear ~n:5 ~capacity:(gbps 400.) in
    let d = Colibri.Deployment.create topo in
    let faults = Net.Fault.create ~seed:1 () in
    if loss > 0. then
      Net.Fault.set_default faults (Net.Fault.plan ~loss ~jitter:0.001 ());
    Colibri.Deployment.attach_network ~faults ~retry_seed:17 d;
    let path = Colibri_topology.Topology_gen.linear_path ~n:5 in
    let cn = Colibri.Deployment.control_net d in
    let lat_sum = ref 0. and ok = ref 0 in
    for _ = 1 to setups do
      let t0 = Colibri.Deployment.now d in
      (match
         Colibri.Deployment.setup_segr_sync d ~path ~kind:Colibri.Reservation.Core
           ~max_bw:(mbps 100.) ~min_bw:(mbps 1.)
       with
      | Ok _ -> incr ok
      | Error _ -> ());
      lat_sum := !lat_sum +. (Colibri.Deployment.now d -. t0)
    done;
    Colibri.Deployment.advance d 120.;
    record_metrics
      (Printf.sprintf "faults/loss%02.0f" (100. *. loss))
      (Obs.Registry.snapshot (Colibri.Deployment.network_metrics d));
    let sent = float_of_int (Colibri.Control_net.sent_count cn) in
    ( !lat_sum /. float_of_int setups,
      sent /. float_of_int setups,
      float_of_int !ok /. float_of_int setups )
  in
  Printf.printf "%-12s %-18s %-16s %-10s\n" "loss" "setup [sim ms]" "msgs/setup"
    "success";
  let clean_lat, clean_msgs, _ = run ~loss:0. in
  Printf.printf "%-12s %-18.2f %-16.1f %-10s\n" "0%" (1000. *. clean_lat)
    clean_msgs "1.00";
  let lossy_lat, lossy_msgs, lossy_ok = run ~loss:0.05 in
  Printf.printf "%-12s %-18.2f %-16.1f %-10.2f\n" "5%" (1000. *. lossy_lat)
    lossy_msgs lossy_ok;
  record_summary "faults_clean_setup_sim_ms" (1000. *. clean_lat);
  record_summary "faults_loss05_setup_sim_ms" (1000. *. lossy_lat);
  record_summary "faults_latency_overhead_x" (lossy_lat /. clean_lat);
  record_summary "faults_clean_msgs_per_setup" clean_msgs;
  record_summary "faults_loss05_msgs_per_setup" lossy_msgs;
  record_summary "faults_msg_overhead_x" (lossy_msgs /. clean_msgs);
  record_summary "faults_loss05_success_rate" lossy_ok;
  Printf.printf
    "\nRetries recover 5%%-loss setups at the cost of retransmissions and\n\
     backoff latency; the clean path pays no retry overhead (§3.3 cleanup\n\
     by timeout, engine-driven).\n"

(* ------------------------------------------------------------------ *)
(* Backend comparison: the same SegR/EER workload through every         *)
(* admission discipline of the registry (DESIGN.md §12).                *)
(* ------------------------------------------------------------------ *)

let backends_mode () =
  let open Colibri_types in
  let module Backend = Backends.Backend_intf in
  Measure.print_header
    "Backend comparison: identical SegR/EER workload per admission discipline";
  let gbps = Bandwidth.of_gbps and mbps = Bandwidth.of_mbps in
  let asn n = Ids.asn ~isd:1 ~num:n in
  let key src id : Ids.res_key = { src_as = asn src; res_id = id } in
  (* A 4-AS linear path; every hop admits on ingress 1 → egress 2 of
     its own instance, so chained disciplines pay 2 messages per hop
     per admission while flyovers purchase per (source, hop, slice). *)
  let hop_count = 4 in
  let link = gbps 40. in
  let share = 0.80 in
  let sources = 32 in
  let seg_setups = if quick then 64 else 256 in
  let eer_setups = if quick then 512 else 4096 in
  let rows = ref [] in
  List.iter
    (fun (f : Backend.factory) ->
      let insts =
        List.init hop_count (fun _ -> f.Backend.make ~capacity:(fun _ -> link) ())
      in
      let setups = ref 0 and admitted = ref 0 in
      (* Walk the path: forward admission at every hop; on a denial,
         release the partial prefix; chained disciplines then commit
         the path-wide minimum on the way back. *)
      let walk_seg ~key ~version ~src ~demand ~exp_time ~now =
        incr setups;
        let req : Backend.seg_request =
          { key; version; src; ingress = 1; egress = 2; demand;
            min_bw = Bandwidth.of_kbps 1.; exp_time }
        in
        let rec forward acc = function
          | [] -> Some (List.rev acc)
          | inst :: rest -> (
              match Backend.admit_seg inst ~req ~now with
              | Backend.Granted g -> forward ((inst, g) :: acc) rest
              | Backend.Denied _ ->
                  List.iter
                    (fun (i, _) -> Backend.remove_seg i ~key ~version ~now)
                    acc;
                  None)
        in
        match forward [] insts with
        | None -> ()
        | Some grants ->
            if Backend.commit_required (List.hd insts) then begin
              let gmin =
                List.fold_left (fun m (_, g) -> Bandwidth.min m g) demand grants
              in
              List.iter
                (fun (i, _) ->
                  match Backend.commit_seg i ~key ~version ~granted:gmin with
                  | Ok () -> ()
                  | Error e -> failwith e)
                grants
            end;
            incr admitted
      in
      let walk_eer ~key ~version ~segr ~demand ~exp_time ~now =
        incr setups;
        let req : Backend.eer_request =
          { key; version; segrs = [ (segr, mbps 400.) ]; via_up = None;
            ingress = 1; egress = 2; demand; renewal = false; exp_time }
        in
        let rec forward acc = function
          | [] -> incr admitted; true
          | inst :: rest -> (
              match Backend.admit_eer inst ~req ~now with
              | Backend.Granted _ -> forward (inst :: acc) rest
              | Backend.Denied _ ->
                  List.iter
                    (fun i -> Backend.remove_eer i ~key ~version ~now)
                    acc;
                  false)
        in
        forward [] insts
      in
      (* Stable population: one long-lived SegR per source, then a
         contention round that loads the link share to ~88% — enough
         room that the short-flow churn below is where the disciplines
         actually differ. *)
      for s = 1 to sources do
        walk_seg ~key:(key s 1) ~version:1 ~src:(asn s) ~demand:(mbps 400.)
          ~exp_time:240. ~now:0.
      done;
      for i = 1 to seg_setups do
        let src = 1 + (i mod sources) in
        walk_seg ~key:(key src (10_000 + i)) ~version:1 ~src:(asn src)
          ~demand:(mbps 60.) ~exp_time:240. ~now:0.
      done;
      (* EER churn: the high-volume phase the per-setup latency is
         measured on. Short-lived flows arrive every 10 simulated ms
         (steady state ≈ 1600 live flows, 8 Gbps — more than the
         remaining headroom, so hard-denial disciplines shed flows
         that proportional sharing and flyover re-booking carry); one
         in eight is torn down immediately (retry/failure paths). *)
      let t0 = Unix.gettimeofday () in
      for i = 1 to eer_setups do
        let src = 1 + (i mod sources) in
        let now = 0.01 *. float_of_int i in
        let k = key src (100_000 + i) in
        let ok =
          walk_eer ~key:k ~version:1 ~segr:(key src 1) ~demand:(mbps 5.)
            ~exp_time:(now +. 16.) ~now
        in
        if ok && i mod 8 = 0 then
          List.iter (fun inst -> Backend.remove_eer inst ~key:k ~version:1 ~now) insts
      done;
      let eer_wall = Unix.gettimeofday () -. t0 in
      let setup_latency_us = 1e6 *. eer_wall /. float_of_int eer_setups in
      (* End-of-run bandwidth promised on the first hop's link, over
         the Colibri share: per-hop disciplines count live EERs here
         (DiffServ's blind grants push it past 1.0), while the
         reference backend books EERs inside the SegR grants it
         already accounts. *)
      let utilization =
        Bandwidth.to_bps (Backend.seg_allocated_on (List.hd insts) ~egress:2)
        /. (share *. Bandwidth.to_bps link)
      in
      let msgs =
        List.fold_left (fun acc i -> acc + Backend.control_messages i) 0 insts
      in
      let msgs_per_setup = float_of_int msgs /. float_of_int !setups in
      let admit_rate = float_of_int !admitted /. float_of_int !setups in
      (match List.concat_map Backend.audit insts with
      | [] -> ()
      | errs -> failwith (String.concat "; " errs));
      record_metrics
        ("backends/" ^ f.Backend.label)
        (Obs.merge (List.map Backend.obs_snapshot insts));
      let p fmt = Printf.sprintf fmt in
      record_summary (p "backend_%s_setup_latency" f.Backend.label) setup_latency_us;
      record_summary (p "backend_%s_msgs_per_setup" f.Backend.label) msgs_per_setup;
      record_summary (p "backend_%s_utilization" f.Backend.label) utilization;
      record_summary (p "backend_%s_admit_rate" f.Backend.label) admit_rate;
      rows :=
        (f.Backend.label, admit_rate, msgs_per_setup, utilization, setup_latency_us)
        :: !rows)
    Backends.All.all;
  Printf.printf "%-10s %12s %12s %12s %14s\n" "backend" "admit_rate" "msgs/setup"
    "utilization" "us/eer-setup";
  List.iter
    (fun (label, ar, ms, ut, lat) ->
      Printf.printf "%-10s %12.3f %12.2f %12.3f %14.2f\n" label ar ms ut lat)
    (List.rev !rows);
  Printf.printf
    "\nChained disciplines (ntube, intserv) pay 2 control messages per hop\n\
     per admission; flyovers only purchase quanta ahead of time and book\n\
     inside their holdings for free; DiffServ signals nothing but\n\
     oversubscribes (utilization > 1 = promised bandwidth beyond the link\n\
     share — the failure admission control exists to prevent).\n"

(* ------------------------------------------------------------------ *)
(* Attack mode: the adversarial suite as a benchmark (§5.1).            *)
(* ------------------------------------------------------------------ *)

(** Runs the three @attack scenarios against every backend and distills
    them into the defense metrics the paper argues about: the honest
    share of a contested trunk under setup spam (N-Tube fairness), how
    fast the §4.8 chain flags a paid-R-sending-kR overuser, and how
    much a crash-synchronized renewal storm amplifies control traffic
    over a clean run. *)
let attack_mode () =
  Measure.print_header "Attack: reservation-layer DDoS defense metrics";
  let s = Attack.Scenario.run_suite ~seed:1 in
  Printf.printf "%-10s %14s %14s %16s %14s\n" "backend" "honest_share"
    "bots_admitted" "detect_windows" "amplification";
  let enforcing_share = ref infinity in
  let diffserv_share = ref 0. in
  List.iter
    (fun (r : Attack.Scenario.exhaustion_report) ->
      if r.xh_bound_enforced then
        enforcing_share := Float.min !enforcing_share r.xh_honest_share
      else diffserv_share := r.xh_honest_share)
    s.s_exhaustion;
  let detection = ref 0. and amplification = ref 0. in
  List.iter
    (fun (r : Attack.Scenario.overuse_report) ->
      detection := Float.max !detection r.ou_detection_windows)
    s.s_overuse;
  List.iter
    (fun (r : Attack.Scenario.storm_report) ->
      amplification := Float.max !amplification r.st_amplification)
    s.s_storm;
  List.iter2
    (fun (x : Attack.Scenario.exhaustion_report)
         ((o : Attack.Scenario.overuse_report),
          (t : Attack.Scenario.storm_report)) ->
      Printf.printf "%-10s %14.3f %11d/%d %16.2f %13.2fx\n" x.xh_backend
        x.xh_honest_share x.xh_bot_seg_granted x.xh_bot_seg_attempts
        o.ou_detection_windows t.st_amplification)
    s.s_exhaustion
    (List.combine s.s_overuse s.s_storm);
  record_summary "attack_honest_share_min" !enforcing_share;
  record_summary "attack_diffserv_honest_share" !diffserv_share;
  record_summary "attack_detection_latency_windows" !detection;
  record_summary "attack_amplification_x" !amplification;
  Printf.printf
    "\nEnforcing backends keep the honest share bounded below under spam\n\
     (DiffServ, with no admission, dilutes it to %.3f); overusers are\n\
     flagged within one OFD window; retry budgets hold renewal-storm\n\
     amplification to %.2fx over a clean run.\n"
    !diffserv_share !amplification

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure.           *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let module M = Measure in
  let open Bechamel in
  let open Toolkit in
  let fig3_rig = Workloads.fig3 ~existing:(if quick then 1000 else 10_000) ~ratio:0.5 in
  let fig4_rig =
    Workloads.fig4
      ~existing:(if quick then 1000 else 10_000)
      ~segrs_same_source:(if quick then 100 else 5000)
  in
  let gw = Workloads.gateway_rig ~path_len:4 ~reservations:(1 lsl 15) () in
  let br = Workloads.router_rig ~path_len:4 ~distinct_packets:4096 () in
  let t2_phase = List.assoc "phase 1" Table2.phases in
  let counter = ref 0 in
  let tick f = fun () -> incr counter; f !counter in
  let tests =
    [
      Test.make ~name:"fig3/segr-admission" (Staged.stage (tick fig3_rig.probe));
      Test.make ~name:"fig4/eer-admission" (Staged.stage (tick fig4_rig.probe));
      Test.make ~name:"fig5/gateway-send" (Staged.stage (tick gw.send));
      Test.make ~name:"fig6/router-process" (Staged.stage (tick br.process));
      Test.make ~name:"table2/one-phase"
        (Staged.stage (fun () -> ignore (Table2.run_phase t2_phase)));
      Test.make ~name:"appE/gateway-send-1500B"
        (Staged.stage
           (tick (Workloads.gateway_rig ~payload_len:1500 ~path_len:4
                    ~reservations:(1 lsl 10) ())
                   .send));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  M.print_header "Bechamel micro-benchmarks (ns per run, OLS)";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let all () =
  fig3 ();
  fig4 ();
  fig5 ();
  fig6 ();
  Table2.run ();
  app_e ();
  ablation ();
  gc_mode ();
  par_mode ();
  doc ();
  faults_mode ();
  backends_mode ();
  attack_mode ()

let () =
  let cmds =
    [
      ("fig3", fig3);
      ("fig4", fig4);
      ("fig5", fig5);
      ("fig6", fig6);
      ("table2", Table2.run);
      ("appE", app_e);
      ("ablation", ablation);
      ("gc", gc_mode);
      ("par", par_mode);
      ("doc", doc);
      ("faults", faults_mode);
      ("backends", backends_mode);
      ("attack", attack_mode);
      ("bechamel", bechamel_suite);
      ("all", all);
    ]
  in
  let requested =
    Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--quick")
  in
  (match requested with
  | [] -> all ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name cmds with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown benchmark %S; available: %s\n" name
                (String.concat ", " (List.map fst cmds));
              exit 1)
        names);
  write_metrics ();
  write_summary ()
