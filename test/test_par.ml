(** Parallel substrate suite: deterministic 2-domain smoke tests for
    [lib/par] plus the [Parallel_router], and the dynamic ownership
    checker (DESIGN.md §11). Every test joins its domains before
    asserting, so results are exact, not racy samples. *)

open Colibri_types
open Colibri

let asn n = Ids.asn ~isd:1 ~num:n
let secret = Hvf.as_secret_of_material (Bytes.make 16 'K')

(* ------------------------------ Spsc_ring -------------------------- *)

let test_ring_fifo () =
  let r = Par.Spsc_ring.create ~dummy:0 4 in
  Alcotest.(check int) "capacity rounds to a power of two" 4 (Par.Spsc_ring.capacity r);
  List.iter
    (fun i -> Alcotest.(check bool) "push accepted" true (Par.Spsc_ring.try_push r i))
    [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "push on a full ring refused" false (Par.Spsc_ring.try_push r 5);
  Alcotest.(check int) "length is capacity when full" 4 (Par.Spsc_ring.length r);
  List.iter
    (fun i ->
      Alcotest.(check (option int)) "fifo order" (Some i) (Par.Spsc_ring.try_pop r))
    [ 1; 2; 3; 4 ];
  Alcotest.(check (option int)) "empty pops None" None (Par.Spsc_ring.try_pop r)

let test_ring_two_domains () =
  let n = 1000 in
  let r = Par.Spsc_ring.create ~check:true ~dummy:(-1) 8 in
  let producer = Domain.spawn (fun () -> for i = 0 to n - 1 do Par.Spsc_ring.push_spin r i done) in
  let out = Array.make n (-1) in
  for i = 0 to n - 1 do
    out.(i) <- Par.Spsc_ring.pop_spin r
  done;
  Domain.join producer;
  Alcotest.(check bool)
    "cross-domain transfer is lossless and ordered" true
    (Array.for_all (fun x -> x >= 0) out
    && Array.for_all (fun i -> out.(i) = i) (Array.init n Fun.id))

let test_ring_ownership_violation () =
  let r = Par.Spsc_ring.create ~check:true ~dummy:0 4 in
  ignore (Par.Spsc_ring.try_push r 1);
  Alcotest.(check (option int)) "first pop binds the consumer" (Some 1) (Par.Spsc_ring.try_pop r);
  ignore (Par.Spsc_ring.try_push r 2);
  (* Simulate a foreign domain stealing the consumer endpoint: the
     next pop must abort instead of racing. *)
  Par.Spsc_ring.corrupt_endpoint_for_test r `Consumer;
  let self = (Domain.self () :> int) in
  Alcotest.check_raises "cross-domain pop aborts"
    (Par.Par_check.Ownership_violation
       (Printf.sprintf
          "Spsc_ring.pop: consumer endpoint is owned by domain %d, used from \
           domain %d"
          (self + 1_000_000) self))
    (fun () -> ignore (Par.Spsc_ring.try_pop r))

let test_ring_check_off () =
  let r = Par.Spsc_ring.create ~check:false ~dummy:0 4 in
  ignore (Par.Spsc_ring.try_push r 1);
  ignore (Par.Spsc_ring.try_pop r);
  Par.Spsc_ring.corrupt_endpoint_for_test r `Consumer;
  ignore (Par.Spsc_ring.try_push r 2);
  Alcotest.(check (option int))
    "release mode skips the endpoint check" (Some 2) (Par.Spsc_ring.try_pop r)

(* Two independent rings, each with its own producer and consumer
   domain (four spawned domains total): exact transfer accounting under
   real cross-domain traffic. Ring A moves elements one at a time
   (push_spin/pop_spin); ring B moves them in batched bursts
   (push_n/pop_into) — both must deliver 0..n-1 losslessly, in order. *)
let test_ring_four_domain_stress () =
  let n = 8192 in
  let expected_sum = n * (n - 1) / 2 in
  let spawn_element_pair () =
    let r = Par.Spsc_ring.create ~check:true ~dummy:(-1) 256 in
    let producer =
      Domain.spawn (fun () ->
          for i = 0 to n - 1 do
            Par.Spsc_ring.push_spin r i
          done)
    in
    let consumer =
      Domain.spawn (fun () ->
          let sum = ref 0 and ordered = ref true in
          for i = 0 to n - 1 do
            let v = Par.Spsc_ring.pop_spin r in
            if v <> i then ordered := false;
            sum := !sum + v
          done;
          (!sum, !ordered))
    in
    (producer, consumer)
  in
  let spawn_batched_pair () =
    let r = Par.Spsc_ring.create ~check:true ~dummy:(-1) 256 in
    let burst = 97 (* deliberately coprime with the capacity *) in
    let producer =
      Domain.spawn (fun () ->
          let src = Array.init n Fun.id in
          let sent = ref 0 in
          while !sent < n do
            let len = min burst (n - !sent) in
            let k = Par.Spsc_ring.push_n r src ~pos:!sent ~len in
            if k = 0 then Domain.cpu_relax () else sent := !sent + k
          done)
    in
    let consumer =
      Domain.spawn (fun () ->
          let dst = Array.make n (-1) in
          let got = ref 0 in
          while !got < n do
            let len = min burst (n - !got) in
            let k = Par.Spsc_ring.pop_into r dst ~pos:!got ~len in
            if k = 0 then Domain.cpu_relax () else got := !got + k
          done;
          let sum = ref 0 and ordered = ref true in
          Array.iteri (fun i v ->
              if v <> i then ordered := false;
              sum := !sum + v)
            dst;
          (!sum, !ordered))
    in
    (producer, consumer)
  in
  let pa, ca = spawn_element_pair () in
  let pb, cb = spawn_batched_pair () in
  Domain.join pa;
  Domain.join pb;
  let sum_a, ordered_a = Domain.join ca in
  let sum_b, ordered_b = Domain.join cb in
  Alcotest.(check bool) "element-wise ring delivers in order" true ordered_a;
  Alcotest.(check int) "element-wise ring delivers every value" expected_sum sum_a;
  Alcotest.(check bool) "batched ring delivers in order" true ordered_b;
  Alcotest.(check int) "batched ring delivers every value" expected_sum sum_b

(* Batched and element transfer are observationally the same queue:
   any interleaving of push_n/try_push on one side and
   pop_into/try_pop on the other yields the input sequence unchanged. *)
let prop_batched_equiv =
  QCheck2.Test.make
    ~name:"spsc ring: push_n/pop_into = n x push/pop, order-preserving"
    ~count:200
    QCheck2.Gen.(
      triple (1 -- 64) (list_size (0 -- 400) (0 -- 10_000)) (0 -- 10_000))
    (fun (cap, xs, seed) ->
      let input = Array.of_list xs in
      let n = Array.length input in
      let rng = Random.State.make [| seed; 0xB47C |] in
      let r = Par.Spsc_ring.create ~check:false ~dummy:(-1) cap in
      let out = Array.make (max n 1) (-1) in
      let pushed = ref 0 and popped = ref 0 in
      while !popped < n do
        (if !pushed < n then
           if Random.State.bool rng then begin
             if Par.Spsc_ring.try_push r input.(!pushed) then incr pushed
           end
           else
             let len = min (1 + Random.State.int rng 17) (n - !pushed) in
             pushed := !pushed + Par.Spsc_ring.push_n r input ~pos:!pushed ~len);
        if Random.State.bool rng then (
          match Par.Spsc_ring.try_pop r with
          | Some v ->
              out.(!popped) <- v;
              incr popped
          | None -> ())
        else
          let len = min (1 + Random.State.int rng 17) (n - !popped) in
          popped := !popped + Par.Spsc_ring.pop_into r out ~pos:!popped ~len
      done;
      Par.Spsc_ring.length r = 0
      && Array.for_all2 ( = ) (Array.sub out 0 n) input)

(* The regression the spin paths are named for (ISSUE 7): with the
   endpoint check bound once per call and the remote index cached, a
   warm push_spin/pop_spin cycle must not touch the allocator at all. *)
let test_spin_paths_zero_alloc () =
  let r = Par.Spsc_ring.create ~check:true ~dummy:0 64 in
  Par.Spsc_ring.push_spin r 0;
  ignore (Par.Spsc_ring.pop_spin r);
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Par.Spsc_ring.push_spin r i;
    ignore (Par.Spsc_ring.pop_spin r)
  done;
  let after = Gc.minor_words () in
  (* [before]'s own float box lands inside the window; subtract it. *)
  Alcotest.(check (float 0.))
    "10k spin push/pop cycles allocate 0 minor words" 0. (Float.max 0. (after -. before -. 2.))

let test_batch_paths_zero_alloc () =
  let r = Par.Spsc_ring.create ~check:true ~dummy:0 64 in
  let src = Array.init 48 Fun.id in
  let dst = Array.make 48 0 in
  ignore (Par.Spsc_ring.push_n r src ~pos:0 ~len:48);
  ignore (Par.Spsc_ring.pop_into r dst ~pos:0 ~len:48);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Par.Spsc_ring.push_n r src ~pos:0 ~len:48);
    ignore (Par.Spsc_ring.pop_into r dst ~pos:0 ~len:48)
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.))
    "10k batched push_n/pop_into bursts allocate 0 minor words" 0.
    (Float.max 0. (after -. before -. 2.))

(* ----------------------------- Domain_pool ------------------------- *)

let test_pool_join () =
  let pool = Par.Domain_pool.spawn ~n:3 (fun i -> (i + 1) * 10) in
  Alcotest.(check int) "pool size" 3 (Par.Domain_pool.size pool);
  Alcotest.(check (array int)) "join collects per-domain results"
    [| 10; 20; 30 |]
    (Par.Domain_pool.join pool)

(* ------------------------------ Par_obs ---------------------------- *)

let test_par_obs_merge () =
  let pobs = Par.Par_obs.create ~slots:2 in
  let pool =
    Par.Domain_pool.spawn ~n:2 (fun i ->
        let reg = Par.Par_obs.claim pobs i in
        let c = Obs.Registry.counter reg "work_total" in
        for _ = 1 to (i + 1) * 5 do
          Obs.Counter.incr c
        done)
  in
  ignore (Par.Domain_pool.join pool);
  (match List.assoc_opt "work_total" (Par.Par_obs.sample pobs) with
  | Some (Obs.Counter n) -> Alcotest.(check int) "merge-at-sample sums slots" 15 n
  | _ -> Alcotest.fail "work_total missing from merged sample");
  Alcotest.(check bool) "slot owners recorded" true
    (Par.Par_obs.owner pobs 0 >= 0 && Par.Par_obs.owner pobs 1 >= 0)

(* --------------------------- Parallel_router ----------------------- *)

let test_parallel_router_drain_exact () =
  let pr =
    Dataplane_shard.Parallel_router.create ~secret ~clock:(fun () -> 0.)
      ~workers:2 (asn 2)
  in
  let n = 200 in
  let sent = ref 0 in
  (* Malformed frames still count as processed (verdict Error): the
     accounting must be exact without needing valid reservations. *)
  for i = 0 to n - 1 do
    let raw = Bytes.make (16 + (i mod 7)) (Char.chr (i land 0xff)) in
    while not (Dataplane_shard.Parallel_router.submit pr ~raw ~payload_len:0) do
      Domain.cpu_relax ()
    done;
    incr sent
  done;
  Dataplane_shard.Parallel_router.drain pr;
  Dataplane_shard.Parallel_router.shutdown pr;
  Alcotest.(check int) "submitted counts every accepted job" n
    (Dataplane_shard.Parallel_router.submitted pr);
  Alcotest.(check int) "processed = submitted after drain" n
    (Dataplane_shard.Parallel_router.processed pr);
  Alcotest.(check int) "nothing left pending" 0
    (Dataplane_shard.Parallel_router.pending pr);
  ignore !sent;
  match
    List.assoc_opt "par_router_processed_total"
      (Dataplane_shard.Parallel_router.metrics pr)
  with
  | Some (Obs.Counter c) -> Alcotest.(check int) "merged metrics agree" n c
  | _ -> Alcotest.fail "par_router_processed_total missing from metrics"

(* [shutdown] alone delivers what it flushes: no [drain] first. Three
   packets on two workers stay in the open batches until [shutdown]
   pushes them, right before it tells the workers to stop, so a worker
   that found its ring empty an instant earlier and then reads [stop]
   must still look again. The race is narrow, so the pattern is
   repeated. *)
let test_parallel_router_shutdown_delivers () =
  for round = 1 to 300 do
    let pr =
      Dataplane_shard.Parallel_router.create ~secret ~clock:(fun () -> 0.)
        ~workers:2 (asn 2)
    in
    List.iter
      (fun len ->
        if not (Dataplane_shard.Parallel_router.submit pr ~raw:(Bytes.make len 'q')
                  ~payload_len:0)
        then Alcotest.fail "submit refused")
      [ 3; 10; 17 ];
    Dataplane_shard.Parallel_router.shutdown pr;
    let processed = Dataplane_shard.Parallel_router.processed pr in
    let m = Dataplane_shard.Parallel_router.metrics pr in
    let counter name =
      match List.assoc_opt name m with Some (Obs.Counter n) -> n | _ -> 0
    in
    let parse_errors =
      counter (Obs.labeled "router_dropped_total" [ ("reason", "parse_error") ])
    in
    if
      Dataplane_shard.Parallel_router.submitted pr <> 3
      || processed <> 3
      || counter "par_router_processed_total" <> 3
      || parse_errors <> 3
    then
      Alcotest.failf "round %d: processed %d, metrics %d processed / %d parse errors of 3"
        round processed (counter "par_router_processed_total") parse_errors
  done

(* Batches below [batch] stay in the orchestrator's open job until an
   explicit flush — and flush alone is enough to get them processed. *)
let test_parallel_router_flush_partial () =
  let pr =
    Dataplane_shard.Parallel_router.create ~secret ~clock:(fun () -> 0.)
      ~workers:1 ~batch:8 (asn 2)
  in
  let raw = Bytes.make 16 'z' in
  for _ = 1 to 3 do
    Alcotest.(check bool) "submit accepted" true
      (Dataplane_shard.Parallel_router.submit pr ~raw ~payload_len:0)
  done;
  (* Nothing has crossed a ring yet: 3 < batch, so the worker cannot
     have seen any packet — this is deterministic, not a race. *)
  Alcotest.(check int) "open batch is invisible to the worker" 0
    (Dataplane_shard.Parallel_router.processed pr);
  Alcotest.(check int) "open batch counts as pending" 3
    (Dataplane_shard.Parallel_router.pending pr);
  Dataplane_shard.Parallel_router.flush pr;
  Dataplane_shard.Parallel_router.drain pr;
  Dataplane_shard.Parallel_router.shutdown pr;
  Alcotest.(check int) "flush delivers the partial batch" 3
    (Dataplane_shard.Parallel_router.processed pr)

let test_parallel_router_submit_batch () =
  let pr =
    Dataplane_shard.Parallel_router.create ~secret ~clock:(fun () -> 0.)
      ~workers:2 ~batch:16 (asn 2)
  in
  let n = 300 in
  let raws = Array.init n (fun i -> Bytes.make (16 + (i mod 5)) 'b') in
  let plens = Array.make n 0 in
  let accepted =
    Dataplane_shard.Parallel_router.submit_batch pr ~raws ~payload_lens:plens
      ~pos:0 ~len:n
  in
  Alcotest.(check int) "burst fits in ring capacity" n accepted;
  Dataplane_shard.Parallel_router.drain pr;
  Dataplane_shard.Parallel_router.shutdown pr;
  Alcotest.(check int) "every burst packet processed" n
    (Dataplane_shard.Parallel_router.processed pr)

(* The 0-alloc steady-state claim of DESIGN.md §11, now including the
   drain spin loop (which used to rebuild a [Par_obs.sample] assoc
   list per iteration) and the batch bookkeeping. Uniform frames keep
   the job buffers at one size, so after one full stock+recycle cycle
   the orchestrator's submit/flush/drain path must not allocate. *)
let test_parallel_router_steady_state_zero_alloc () =
  let pr =
    Dataplane_shard.Parallel_router.create ~secret ~clock:(fun () -> 0.)
      ~workers:1 ~ring_capacity:4 ~batch:8 (asn 2)
  in
  let raw = Bytes.make 16 'z' in
  let burst n =
    for _ = 1 to n do
      while not (Dataplane_shard.Parallel_router.submit pr ~raw ~payload_len:0) do
        Domain.cpu_relax ()
      done
    done;
    Dataplane_shard.Parallel_router.drain pr
  in
  (* Warm-up: size all 4 stock jobs (32 packets) and run one recycle
     round through the free ring. *)
  burst 64;
  let before = Gc.minor_words () in
  burst 32;
  let after = Gc.minor_words () in
  Dataplane_shard.Parallel_router.shutdown pr;
  Alcotest.(check (float 0.))
    "submit/flush/drain steady state allocates 0 minor words" 0.
    (Float.max 0. (after -. before -. 2.))

let test_parallel_router_shutdown_idempotent () =
  let pr =
    Dataplane_shard.Parallel_router.create ~secret ~clock:(fun () -> 0.)
      ~workers:1 (asn 2)
  in
  Dataplane_shard.Parallel_router.shutdown pr;
  Dataplane_shard.Parallel_router.shutdown pr;
  Alcotest.(check int) "clean shutdown with zero traffic" 0
    (Dataplane_shard.Parallel_router.processed pr)

(* Router ≡ Parallel_router: one seeded stream through a bare router
   and through a 2-worker bare parallel router must give the same
   verdict counts. Monitoring stays off on both sides: each worker has
   its own OFD and duplicate filter, so monitored counts legitimately
   differ. The parallel side reports Ok verdicts without their action,
   so forwarded and delivered are compared as one Ok total there; the
   bare side's split is checked against the stream's construction. *)

let diff_now = 100.

type diff_kind = Fwd | Dlv | Bad_hvf | Expired | Stale | Off_path | Short

let diff_kinds = [| Fwd; Dlv; Bad_hvf; Expired; Stale; Off_path; Short |]

let diff_frame rng kind : bytes * int =
  if kind = Short then (Bytes.make [| 0; 1; 8 |].(Random.State.int rng 3) '\000', 0)
  else
  let hop a ~ingress ~egress = Path.hop ~asn:(asn a) ~ingress ~egress in
  let path =
    match kind with
    | Dlv -> [ hop 1 ~ingress:0 ~egress:1; hop 2 ~ingress:1 ~egress:0 ]
    | Off_path -> [ hop 1 ~ingress:0 ~egress:1; hop 3 ~ingress:1 ~egress:0 ]
    | _ ->
        [ hop 1 ~ingress:0 ~egress:1; hop 2 ~ingress:1 ~egress:2;
          hop 3 ~ingress:1 ~egress:0 ]
  in
  let exp_time =
    if kind = Expired then diff_now -. 60. else diff_now +. 4. +. Random.State.float rng 8.
  in
  let sent =
    match kind with
    | Expired -> exp_time -. 1.
    | Stale -> diff_now -. 30.
    | _ -> diff_now -. Random.State.float rng 0.5
  in
  let res_info : Packet.res_info =
    {
      src_as = asn 1;
      res_id = 1 + Random.State.int rng 1_000_000;
      bw = Bandwidth.of_mbps 100.;
      exp_time;
      version = 1;
    }
  in
  let eer_info : Packet.eer_info =
    { src_host = Ids.host 1; dst_host = Ids.host (1 + Random.State.int rng 50) }
  in
  let payload_len = Random.State.int rng 200 in
  let hops = List.length path in
  let ts = Timebase.Ts.of_times ~exp_time ~now:sent in
  let hvfs = Array.init hops (fun _ -> Bytes.make 4 'x') in
  let sigma =
    Hvf.sigma_of_bytes
      (Hvf.hop_auth secret ~res_info ~eer_info ~hop:(List.nth path 1))
  in
  let pkt_size = Packet.header_len ~hops + payload_len in
  if kind <> Bad_hvf then hvfs.(1) <- Hvf.eer_hvf sigma ~ts ~pkt_size;
  let pkt : Packet.t =
    { kind = Packet.Eer; path; res_info; eer_info = Some eer_info; ts; hvfs; payload_len }
  in
  (Packet.to_bytes pkt, payload_len)

let test_router_parallel_differential () =
  let rng = Random.State.make [| 0xD1FF |] in
  let n = 1400 in
  let stream =
    Array.init n (fun _ ->
        let kind = diff_kinds.(Random.State.int rng (Array.length diff_kinds)) in
        (kind, diff_frame rng kind))
  in
  let clock () = diff_now in
  let r = Router.create ~ofd:`None ~duplicates:`None ~secret ~clock (asn 2) in
  let fwd = ref 0 and dlv = ref 0 in
  Array.iter
    (fun (_, (raw, payload_len)) ->
      match Router.process_bytes r ~raw ~payload_len with
      | Ok (Router.Forward _) -> incr fwd
      | Ok (Router.Deliver _) -> incr dlv
      | Ok Router.To_cserv -> Alcotest.fail "EER stream routed to CServ"
      | Error _ -> ())
    stream;
  let expect k = Array.fold_left (fun n (k', _) -> if k' = k then n + 1 else n) 0 stream in
  Alcotest.(check int) "bare router forwards every valid transit packet" (expect Fwd) !fwd;
  Alcotest.(check int) "bare router delivers every valid last-hop packet" (expect Dlv) !dlv;
  let pr = Dataplane_shard.Parallel_router.create ~secret ~clock ~workers:2 (asn 2) in
  Array.iter
    (fun (_, (raw, payload_len)) ->
      match
        while not (Dataplane_shard.Parallel_router.submit pr ~raw ~payload_len) do
          Domain.cpu_relax ()
        done
      with
      | () -> ()
      | exception e -> Alcotest.failf "submit raised %s" (Printexc.to_string e))
    stream;
  Dataplane_shard.Parallel_router.shutdown pr;
  Alcotest.(check int) "every packet processed" n
    (Dataplane_shard.Parallel_router.processed pr);
  let bare = Obs.Registry.snapshot (Router.metrics r) in
  let par = Dataplane_shard.Parallel_router.metrics pr in
  let counter snap name =
    match List.assoc_opt name snap with Some (Obs.Counter c) -> c | _ -> 0
  in
  Alcotest.(check int) "forwarded + delivered agree" (!fwd + !dlv)
    (counter par "par_router_forwarded_total");
  List.iter
    (fun name ->
      Alcotest.(check int) name (counter bare name) (counter par name))
    ("router_forwarded_total"
    :: List.map
         (fun reason -> Obs.labeled "router_dropped_total" [ ("reason", reason) ])
         [ "parse_error"; "not_on_path"; "expired_reservation"; "stale_timestamp";
           "invalid_hvf"; "blocked_source"; "duplicate"; "policed" ]);
  List.iter
    (fun (k, reason) ->
      Alcotest.(check int) ("stream exercises " ^ reason) (expect k)
        (counter par (Obs.labeled "router_dropped_total" [ ("reason", reason) ])))
    [ (Short, "parse_error"); (Off_path, "not_on_path"); (Expired, "expired_reservation");
      (Stale, "stale_timestamp"); (Bad_hvf, "invalid_hvf") ]

let suite =
  [
    Alcotest.test_case "spsc ring: fifo, capacity, backpressure" `Quick test_ring_fifo;
    Alcotest.test_case "spsc ring: 2-domain transfer" `Quick test_ring_two_domains;
    Alcotest.test_case "spsc ring: corrupted cross-domain pop aborts" `Quick
      test_ring_ownership_violation;
    Alcotest.test_case "spsc ring: check:false skips the guard" `Quick test_ring_check_off;
    Alcotest.test_case "spsc ring: 4-domain two-ring stress, exact accounting"
      `Quick test_ring_four_domain_stress;
    QCheck_alcotest.to_alcotest prop_batched_equiv;
    Alcotest.test_case "spsc ring: spin paths allocate 0 minor words" `Quick
      test_spin_paths_zero_alloc;
    Alcotest.test_case "spsc ring: batch paths allocate 0 minor words" `Quick
      test_batch_paths_zero_alloc;
    Alcotest.test_case "domain pool: spawn/join collects results" `Quick test_pool_join;
    Alcotest.test_case "par_obs: per-domain slots merge at sample" `Quick test_par_obs_merge;
    Alcotest.test_case "parallel router: exact accounting after drain" `Quick
      test_parallel_router_drain_exact;
    Alcotest.test_case "parallel router: flush delivers partial batches" `Quick
      test_parallel_router_flush_partial;
    Alcotest.test_case "parallel router: submit_batch burst accounting" `Quick
      test_parallel_router_submit_batch;
    Alcotest.test_case "parallel router: steady state allocates 0 minor words"
      `Quick test_parallel_router_steady_state_zero_alloc;
    Alcotest.test_case "parallel router: shutdown delivers its flushed batch" `Quick
      test_parallel_router_shutdown_delivers;
    Alcotest.test_case "parallel router: shutdown is idempotent" `Quick
      test_parallel_router_shutdown_idempotent;
    Alcotest.test_case "parallel router: same verdict counts as a bare router" `Quick
      test_router_parallel_differential;
  ]
