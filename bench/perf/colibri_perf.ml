(** [colibri_perf]: the outside-in performance benchmark.

    {v
    colibri_perf run --workload W [--seed N] [--seconds S] [--trace 0|1]
                     [--spans FILE]
    colibri_perf report FILE
    colibri_perf spread [--runs 5] [--seconds S] [--seed N] [--workload W]...
                        [--out PATH]
    colibri_perf selftest --benchmark PATH
    v}

    [run] prints every metric by name with its unit, then, as its last
    line, one JSON object: [correct], [attempted], [failed], and the
    end-to-end metrics ([--trace 0]) or the per-layer metrics
    ([--trace 1]). It exits 1 when a correctness check fails. See
    README.md for the workloads and metrics. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("colibri_perf: " ^ s); exit 2) fmt

(* [--key value] options, after the subcommand. *)
let parse_opts (args : string list) : (string * string) list * string list =
  let rec go opts rest = function
    | k :: v :: tl when String.starts_with ~prefix:"--" k ->
        go ((String.sub k 2 (String.length k - 2), v) :: opts) rest tl
    | k :: _ when String.starts_with ~prefix:"--" k -> die "option %s needs a value" k
    | x :: tl -> go opts (x :: rest) tl
    | [] -> (List.rev opts, List.rev rest)
  in
  go [] [] args

let opt opts k default = Option.value (List.assoc_opt k opts) ~default

let num opts k default =
  match float_of_string_opt (opt opts k default) with
  | Some f when Float.is_finite f && f >= 0. -> f
  | _ -> die "--%s expects a number" k

let flag01 opts k =
  match opt opts k "0" with "0" -> false | "1" -> true | _ -> die "--%s expects 0 or 1" k

let spec_of name =
  match Workload.find name with
  | Some s -> s
  | None ->
      die "unknown workload %S (one of: %s)" name
        (String.concat ", " (List.map (fun (s : Workload.spec) -> s.name) Workload.specs))

(* ---------------- run ---------------- *)

let units =
  List.map (fun (m : Metrics.e2e) -> (m.name, m.unit_)) Metrics.end_to_end
  @ List.map (fun (m : Metrics.layer) -> (m.lname, m.lunit)) Metrics.per_layer

let share_meta (i : Metrics.share_inputs) =
  let f = Printf.sprintf "%.17g" in
  [
    ("input.hops", string_of_int i.hops);
    ("input.pipeline", string_of_bool i.pipeline);
    ("input.fwd_lat_us_p50", f i.fwd_lat_us_p50);
    ("input.sigma_ns", f i.sigma_ns);
    ("input.compute_ns", f i.compute_ns);
    ("input.worker_ns", f i.worker_ns);
    ("input.untraced_rate", f i.untraced_rate);
    ("input.traced_rate", f i.traced_rate);
  ]

let result_line ~correct ~attempted ~failed (values : (string * float) list) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (k, v) ->
                  ( k,
                    Json.Obj
                      [ ("value", Json.Num v); ("unit", Json.Str (List.assoc k units)) ] ))
                values) );
       ])

let run_cmd args =
  let opts, rest = parse_opts args in
  if rest <> [] then die "run: unexpected argument %s" (List.hd rest);
  let spec = spec_of (opt opts "workload" "forward") in
  let seed = int_of_float (num opts "seed" "1") in
  let trace = flag01 opts "trace" in
  let o = { Workload.seconds = num opts "seconds" "10"; trace; smoke = false } in
  let r = Workload.run spec ~seed o in
  let values = if trace then Metrics.layer_values r else Metrics.e2e_values r in
  let checks =
    r.checks
    @ [
        ( "every metric is a finite number",
          match List.find_opt (fun (_, v) -> not (Float.is_finite v)) values with
          | None -> None
          | Some (k, _) -> Some (k ^ " is not finite") );
      ]
  in
  (match List.assoc_opt "spans" opts with
  | Some path ->
      Option.iter
        (fun t ->
          Trace.write t
            ~meta:
              ([
                 ("workload", spec.name);
                 ("seed", string_of_int seed);
                 ( "steady_spans",
                   String.concat " "
                     (List.map
                        (fun (lo, hi) -> Printf.sprintf "%d:%d" lo hi)
                        (Metrics.steady_spans r)) );
               ]
              @ share_meta (Metrics.share_inputs r))
            path)
        r.trace
  | None -> ());
  Printf.printf "%s seed %d, %s, %d rounds\n" spec.name seed
    (if trace then "traced" else "untraced")
    (List.length r.rounds);
  List.iteri
    (fun i (x : Workload.round) ->
      Printf.printf "  round %2d%s %6.0f intents/s %9.0f packets/s\n" (i + 1)
        (if x.traced then " traced" else "       ")
        (float_of_int x.granted /. x.ctl_s)
        (float_of_int x.delivered /. x.data_s))
    r.rounds;
  List.iter
    (fun (k, v) -> Printf.printf "  %-34s %16.4f %s\n" k v (List.assoc k units))
    values;
  Printf.printf "  samples:%s\n"
    (String.concat ","
       (List.map (fun (k, n) -> Printf.sprintf " %s %d" k n) (Metrics.samples r)));
  List.iter
    (fun (name, verdict) ->
      match verdict with
      | None -> Printf.printf "  check ok: %s\n" name
      | Some why -> Printf.printf "  CHECK FAILED: %s (%s)\n" name why)
    checks;
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 r.rounds in
  let intents = sum (fun (x : Workload.round) -> x.intents) in
  let granted = sum (fun (x : Workload.round) -> x.granted) in
  let packets = sum (fun (x : Workload.round) -> x.packets) in
  let correct = List.for_all (fun (_, v) -> v = None) checks in
  print_endline
    (result_line ~correct ~attempted:(intents + packets)
       ~failed:(intents - granted + r.packets_failed)
       values);
  List.iter
    (fun (name, v) ->
      Option.iter (fun why -> Printf.eprintf "check failed: %s: %s\n" name why) v)
    checks;
  exit (if correct then 0 else 1)

(* ---------------- report ---------------- *)

let report_cmd = function
  | [ path ] ->
      let tr, meta =
        try Trace.read path with Sys_error e | Failure e -> die "report: %s" e
      in
      let m k =
        match List.assoc_opt k meta with
        | Some v -> v
        | None -> die "report: %s lacks %s" path k
      in
      let f k = float_of_string (m k) in
      let inputs : Metrics.share_inputs =
        {
          hops = int_of_string (m "input.hops");
          pipeline = bool_of_string (m "input.pipeline");
          fwd_lat_us_p50 = f "input.fwd_lat_us_p50";
          sigma_ns = f "input.sigma_ns";
          compute_ns = f "input.compute_ns";
          worker_ns = f "input.worker_ns";
          untraced_rate = f "input.untraced_rate";
          traced_rate = f "input.traced_rate";
        }
      in
      let ranges =
        List.map
          (fun r -> Scanf.sscanf r "%d:%d" (fun lo hi -> (lo, hi)))
          (String.split_on_char ' ' (m "steady_spans"))
      in
      let spans = Trace.summarize ~ranges tr in
      Printf.printf "%s seed %s: %d spans, %d span ranges kept\n\n" (m "workload")
        (m "seed") tr.n (List.length ranges);
      Printf.printf "%-30s %9s %12s %12s %12s %10s\n" "span" "count" "self p50 ns"
        "self mean ns" "total p50 ns" "words";
      List.iter
        (fun (name, (s : Trace.stat)) ->
          Printf.printf "%-30s %9d %12.0f %12.0f %12.0f %10.1f\n" name s.count s.self_p50
            s.self_mean s.dur_p50 s.words_mean)
        spans;
      let sh = Metrics.shares spans inputs in
      let share k = List.assoc k sh in
      print_newline ();
      Printf.printf
        "router.sigma_share        %6.1f %%  of a router's per-packet time is σ \
         re-derivation\n"
        (100. *. share "router.sigma_share");
      Printf.printf
        "bench.fwd_self_coverage   %6.1f %%  of fwd_lat_us_p50 (%.2f us) is covered by \
         layer self times\n"
        (100. *. share "bench.fwd_self_coverage")
        inputs.fwd_lat_us_p50;
      let compute = share "cserv.compute_share" in
      Printf.printf
        "cserv.compute_share       %6.1f %%  of an intent (setup_eer_sync p50) is CServ \
         compute;\n\
        \                          %6.1f %%  is transport, engine and retry\n"
        (100. *. compute)
        (100. *. (1. -. compute));
      Printf.printf "bench.trace_overhead_pct  %6.1f %%  slower with tracing on\n"
        (share "bench.trace_overhead_pct")
  | _ -> die "usage: colibri_perf report FILE"

(* ---------------- spread ---------------- *)

(* Run one workload in a child process and read its result line. *)
let child_run ~workload ~seed ~seconds : (string * float) list =
  let argv =
    [|
      Sys.executable_name; "run"; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; seconds; "--trace"; "0";
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let rec last acc = match input_line ic with l -> last l | exception End_of_file -> acc in
  let line = last "" in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> die "spread: %s seed %d failed" workload seed);
  match Json.member "metrics" (Json.parse line) with
  | Json.Obj kvs ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt (Json.member "value" v)))
        kvs
  | _ -> die "spread: no metrics from %s seed %d" workload seed

let spread_cmd args =
  let opts, rest = parse_opts args in
  if rest <> [] then die "spread: unexpected argument %s" (List.hd rest);
  let runs = int_of_float (num opts "runs" "5") in
  if runs < 2 then die "spread: --runs must be at least 2";
  let seed = int_of_float (num opts "seed" "1") in
  let seconds = opt opts "seconds" "10" in
  let workloads =
    match List.filter_map (fun (k, v) -> if k = "workload" then Some v else None) opts with
    | [] -> List.map (fun (s : Workload.spec) -> s.name) Workload.specs
    | ws -> List.map (fun w -> (spec_of w).name) ws
  in
  let bound k =
    List.find_map
      (fun (m : Metrics.e2e) -> if m.name = k then Some m.bound else None)
      Metrics.end_to_end
  in
  let b = Buffer.create 4096 in
  let out fmt = Printf.bprintf b fmt in
  out "# %d untraced runs per workload, seeds %d..%d, %s s\n" runs seed (seed + runs - 1)
    seconds;
  out "%-9s %-34s %14s %14s %14s %8s %6s\n" "workload" "metric" "median" "q1" "q3"
    "spread" "bound";
  List.iter
    (fun w ->
      let results =
        List.init runs (fun i -> child_run ~workload:w ~seed:(seed + i) ~seconds)
      in
      List.iter
        (fun (k, _) ->
          let xs = List.map (List.assoc k) results in
          let q1, q3 = Stats.quartiles xs in
          let med = Stats.median xs in
          let spread = if med = 0. then 0. else (q3 -. q1) /. Float.abs med in
          out "%-9s %-34s %14.6g %14.6g %14.6g %7.2f%% %6s%s\n" w k med q1 q3
            (100. *. spread)
            (match bound k with Some x -> Printf.sprintf "%.1f%%" (100. *. x) | None -> "-")
            (match bound k with
            | Some x when k <> "setup_s" && spread > x /. 3. -> "  > bound/3"
            | _ -> ""))
        (List.hd results))
    workloads;
  match List.assoc_opt "out" opts with
  | Some path ->
      let oc = open_out path in
      Buffer.output_buffer oc b;
      close_out oc
  | None -> print_string (Buffer.contents b)

(* ---------------- selftest ---------------- *)

(* The smoke-size run of every workload that [dune runtest] makes:
   correctness checks hold, every end-to-end metric is positive, and
   the metric names, units and directions equal BENCHMARK.json's. *)
let selftest_cmd args =
  let opts, _ = parse_opts args in
  let path = opt opts "benchmark" "BENCHMARK.json" in
  let bench =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    try Json.parse s with Json.Error e -> die "selftest: %s: %s" path e
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let entries key =
    List.map
      (fun e ->
        let s k = Option.value (Json.to_string_opt (Json.member k e)) ~default:"?" in
        (s "name", (s "unit", s "better")))
      (Json.to_list (Json.member key bench))
  in
  let same what (declared : (string * (string * string)) list) ours =
    if declared <> ours then
      fail "%s in %s differ from colibri_perf's: %s vs %s" what path
        (String.concat "," (List.map fst declared))
        (String.concat "," (List.map fst ours))
  in
  same "end_to_end metrics" (entries "end_to_end")
    (List.map
       (fun (m : Metrics.e2e) -> (m.name, (m.unit_, Metrics.better_name m.better)))
       Metrics.end_to_end);
  same "per_layer metrics" (entries "per_layer")
    (List.map
       (fun (m : Metrics.layer) -> (m.lname, (m.lunit, Metrics.better_name m.lbetter)))
       Metrics.per_layer);
  List.iter
    (fun e ->
      let name = Option.value (Json.to_string_opt (Json.member "name" e)) ~default:"?" in
      let ours =
        List.find_opt (fun (m : Metrics.e2e) -> m.name = name) Metrics.end_to_end
      in
      match (ours, Json.to_float_opt (Json.member "bound" e)) with
      | Some m, Some b when b <> m.bound ->
          fail "bound of %s: %g in %s, %g here" name b path m.bound
      | _ -> ())
    (Json.to_list (Json.member "end_to_end" bench));
  let declared_workloads =
    List.filter_map
      (fun e -> Json.to_string_opt (Json.member "name" e))
      (Json.to_list (Json.member "workloads" bench))
  in
  if declared_workloads <> List.map (fun (s : Workload.spec) -> s.name) Workload.specs then
    fail "workloads in %s differ from colibri_perf's" path;
  List.iter
    (fun (spec : Workload.spec) ->
      let t0 = Unix.gettimeofday () in
      let r = Workload.run spec ~seed:1 { seconds = 0.3; trace = true; smoke = true } in
      List.iter
        (fun (name, v) -> Option.iter (fail "%s: %s: %s" spec.name name) v)
        r.checks;
      let e2e = Metrics.e2e_values r and layers = Metrics.layer_values r in
      if List.map fst e2e <> List.map (fun (m : Metrics.e2e) -> m.name) Metrics.end_to_end
      then fail "%s: emitted end-to-end names differ from the catalogue" spec.name;
      if List.map fst layers <> List.map (fun (m : Metrics.layer) -> m.lname) Metrics.per_layer
      then fail "%s: emitted per-layer names differ from the catalogue" spec.name;
      List.iter
        (fun (k, v) ->
          if not (v > 0. && Float.is_finite v) then fail "%s: %s = %g" spec.name k v)
        e2e;
      List.iter
        (fun (k, v) -> if not (Float.is_finite v) then fail "%s: %s = %g" spec.name k v)
        layers;
      Printf.printf "selftest %-9s %.1f s\n%!" spec.name (Unix.gettimeofday () -. t0))
    Workload.specs;
  match List.rev !failures with
  | [] -> print_endline "selftest ok"
  | fs ->
      List.iter (fun f -> prerr_endline ("selftest: " ^ f)) fs;
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd args
  | "report" :: args -> report_cmd args
  | "spread" :: args -> spread_cmd args
  | "selftest" :: args -> selftest_cmd args
  | _ -> die "usage: colibri_perf (run|report|spread|selftest) [options]; see README.md"
