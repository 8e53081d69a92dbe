open Colibri_types
open Colibri_topology
open Colibri
module PR = Dataplane_shard.Parallel_router

type conf = { seed : int; loss : float; eer_mbps : float }

type route = Deployment.eer_route

type flow = {
  key : Ids.res_key;
  route : route;
  mutable managed : Deployment.managed option;
}

type t = {
  conf : conf;
  d : Deployment.t;
  segr : Deployment.managed;
  gateway : Gateway.t;
  routers : Router.t array; (* path order *)
  mutable pkt : bytes; (* the wire header of the last [send] *)
  mutable last_error : string;
}

let n_ases = 4
let asn i = Ids.asn ~isd:1 ~num:i
let src_host = Ids.host 1
let dst_host = Ids.host 2
let segr_bw = Bandwidth.of_gbps 200.
let segr_min = Bandwidth.of_mbps 1.
let topology () = Topology_gen.linear ~n:n_ases ~capacity:(Bandwidth.of_gbps 400.)

(* Every link delays each message by an extra uniform 0–1 ms, so
   simulated setup times vary with the seed like real ones do. *)
let jitter = 0.001
let retry_budget = Retry.default_policy.max_attempts

let build (c : conf) : t =
  let d = Deployment.create ~seed:c.seed (topology ()) in
  let faults = Net.Fault.create ~seed:c.seed () in
  Net.Fault.set_default faults (Net.Fault.plan ~loss:c.loss ~jitter ());
  Deployment.attach_network ~faults ~retry_seed:(c.seed + 0x5E77) d;
  let path = Topology_gen.linear_path ~n:n_ases in
  let segr =
    match
      Deployment.setup_segr_sync d ~path ~kind:Reservation.Core ~max_bw:segr_bw
        ~min_bw:segr_min
    with
    | Ok s -> s
    | Error e -> failwith ("core SegR setup: " ^ e)
  in
  let segr =
    match Deployment.auto_renew_segr d ~key:segr.key ~max_bw:segr_bw ~min_bw:segr_min with
    | Ok m -> m
    | Error e -> failwith ("core SegR renewal: " ^ e)
  in
  {
    conf = c;
    d;
    segr;
    gateway = Deployment.gateway d (asn 1);
    routers = Array.of_list (List.map (Deployment.router d) (Path.ases path));
    pkt = Bytes.create (Packet.header_len ~hops:n_ases);
    last_error = "";
  }

let hops (t : t) = Array.length t.routers
let sim_now (t : t) = Deployment.now t.d
let advance (t : t) (dt : float) = Deployment.advance t.d dt
let last_error (t : t) = t.last_error
let bw (t : t) = Bandwidth.of_mbps t.conf.eer_mbps

(* ---------------- Control plane ---------------- *)

let lookup (t : t) : route option =
  match Deployment.lookup_eer_routes t.d ~src:(asn 1) ~dst:(asn n_ases) with
  | r :: _ -> Some r
  | [] ->
      t.last_error <- "no EER route";
      None

let granted (t : t) route = function
  | Ok (eer : Reservation.eer) -> Some { key = eer.key; route; managed = None }
  | Error e ->
      t.last_error <- e;
      None

let setup (t : t) (route : route) : flow option =
  granted t route
    (Deployment.setup_eer_sync t.d ~route ~src_host ~dst_host ~bw:(bw t))

let renew (t : t) (f : flow) : bool =
  match
    Deployment.setup_eer_sync ~renew:f.key t.d ~route:f.route ~src_host ~dst_host
      ~bw:(bw t)
  with
  | Ok _ -> true
  | Error e ->
      t.last_error <- e;
      false

let setup_concurrently (t : t) (route : route) (n : int) : flow array option =
  let results = Array.make n None in
  let open_ = ref n in
  for i = 0 to n - 1 do
    Deployment.setup_eer_net t.d ~route ~src_host ~dst_host ~bw:(bw t)
      ~on_result:(fun r ->
        results.(i) <- granted t route r;
        decr open_)
  done;
  let engine = Deployment.engine t.d in
  while !open_ > 0 && Net.Engine.step engine do
    ()
  done;
  if Array.for_all Option.is_some results then Some (Array.map Option.get results)
  else None

let auto_renew (t : t) (f : flow) : bool =
  match
    Deployment.auto_renew_eer t.d ~key:f.key ~route:f.route ~src_host ~dst_host
      ~bw:(bw t)
  with
  | Ok m ->
      f.managed <- Some m;
      true
  | Error e ->
      t.last_error <- e;
      false

let stop_renewal (f : flow) = Option.iter Deployment.stop_renewal f.managed

(* ---------------- Data plane ---------------- *)

let res_id (f : flow) : Ids.res_id =
  match f.managed with
  | None -> f.key.res_id
  | Some m -> (Deployment.managed_key m).res_id

let send (t : t) (f : flow) : bool =
  match Gateway.send_bytes t.gateway ~res_id:(res_id f) ~payload_len:0 with
  | Ok _ ->
      let len = Gateway.out_len t.gateway in
      if Bytes.length t.pkt <> len then t.pkt <- Bytes.create len;
      Bytes.blit (Gateway.out t.gateway) 0 t.pkt 0 len;
      true
  | Error _ -> false

let forward = 0
let deliver = 1
let duplicate = 2
let dropped = 3

let hop (t : t) (i : int) : int =
  match Router.process_bytes t.routers.(i) ~raw:t.pkt ~payload_len:0 with
  | Ok (Router.Forward _) -> forward
  | Ok (Router.Deliver _) -> deliver
  | Error Router.Duplicate -> duplicate
  | Ok Router.To_cserv | Error _ -> dropped

let packet_copy (t : t) = Bytes.copy t.pkt

(* ---------------- Pipeline ---------------- *)

type pipe = { pr : PR.t; clock : float Atomic.t }

let pipe_create (t : t) ~(now_ns : unit -> int) : pipe =
  let clock = Atomic.make (sim_now t) in
  let pr =
    PR.create ~monitoring:false ~check:false ~mono:now_ns
      ~secret:(Cserv.hop_secret (Deployment.cserv t.d (asn 1)))
      ~clock:(fun () -> Atomic.get clock)
      ~workers:1 (asn 1)
  in
  { pr; clock }

let pipe_publish_clock (t : t) (p : pipe) = Atomic.set p.clock (sim_now t)
let pipe_submit (t : t) (p : pipe) = PR.submit p.pr ~raw:t.pkt ~payload_len:0
let pipe_flush (p : pipe) = PR.flush p.pr
let pipe_submitted (p : pipe) = PR.submitted p.pr
let pipe_processed (p : pipe) = PR.processed p.pr
let pipe_busy_ns (p : pipe) = PR.worker_busy_ns p.pr 0

let counter (snap : Obs.snapshot) (name : string) : int =
  match List.assoc_opt name snap with Some (Obs.Counter n) -> n | _ -> 0

(* Sum of every member of a labeled counter family. *)
let family (snap : Obs.snapshot) (prefix : string) : int =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Obs.Counter n when String.starts_with ~prefix name -> acc + n
      | _ -> acc)
    0 snap

let gauge (snap : Obs.snapshot) (name : string) : float =
  match List.assoc_opt name snap with Some (Obs.Gauge g) -> g | _ -> 0.

let pipe_shutdown (p : pipe) : int =
  PR.shutdown p.pr;
  counter (PR.metrics p.pr) "par_router_forwarded_total"

(* ---------------- End of run ---------------- *)

let drain (t : t) (flows : flow list) =
  Deployment.stop_renewal t.segr;
  List.iter stop_renewal flows;
  Deployment.advance t.d 400.

let audit (t : t) = Deployment.audit_all t.d
let retry_pending (t : t) = Retry.pending (Deployment.retrier t.d)

let accounting_closed (t : t) =
  let cn = Deployment.control_net t.d in
  Control_net.sent_count cn = Control_net.delivered_count cn + Control_net.lost_count cn

(* ---------------- Counters ---------------- *)

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
  eer_denied : int;
  gateway_drops : int;
  gateway_reservations : int;
  router_drops_duplicate : int;
  router_drops_other : int;
  ofd_suspects : int;
  dup_fill_ratio : float;
}

let counters (t : t) : counters =
  let net = Obs.Registry.snapshot (Deployment.network_metrics t.d) in
  let c = counter net in
  let routers =
    Array.to_list (Array.map (fun r -> Obs.Registry.snapshot (Router.metrics r)) t.routers)
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 routers in
  let duplicate = Obs.labeled "router_dropped_total" [ ("reason", "duplicate") ] in
  let gw = Obs.Registry.snapshot (Gateway.metrics t.gateway) in
  {
    msgs_sent = c "control_net_messages_sent_total";
    msgs_lost = c "control_net_messages_lost_total";
    retry_requests = c "retry_requests_total";
    retry_attempts = c "retry_attempts_total";
    retry_timeouts = c "retry_timeouts_total";
    retry_exhausted = c "retry_exhausted_total";
    renew_started = c "renewal_started_total";
    renew_ok = c "renewal_ok_total";
    renew_late = c "renewal_late_total";
    renew_degraded = c "renewal_degraded_total";
    engine_events = Net.Engine.processed (Deployment.engine t.d);
    eer_denied =
      List.fold_left
        (fun acc a ->
          acc
          + family
              (Obs.Registry.snapshot (Cserv.metrics (Deployment.cserv t.d a)))
              "cserv_eer_denied_total")
        0
        (Topology.ases (Deployment.topology t.d));
    gateway_drops = family gw "gateway_dropped_total";
    gateway_reservations = Gateway.reservation_count t.gateway;
    router_drops_duplicate = sum (fun s -> counter s duplicate);
    router_drops_other =
      sum (fun s -> family s "router_dropped_total" - counter s duplicate);
    ofd_suspects = sum (fun s -> counter s "router_suspects_flagged_total");
    dup_fill_ratio =
      List.fold_left
        (fun acc s -> Float.max acc (gauge s "router_dup_filter_fill_ratio"))
        0. routers;
  }

(* ---------------- Microbenchmarks ---------------- *)

type kernels = {
  parse : float;
  auth : float;
  rekey : float;
  hvf : float;
  check : float;
  all_valid : bool;
}

let kernels (t : t) ~(now_ns : unit -> int) (bank : bytes array) : kernels =
  let hop = 1 in
  let secret = Cserv.hop_secret (Deployment.cserv t.d (asn (hop + 1))) in
  let v = Packet.View.create () in
  let scr = Hvf.scratch () in
  let sigma = Bytes.create Crypto.Cmac.mac_size in
  let key = Crypto.Cmac.of_secret (Bytes.make Crypto.Cmac.mac_size 's') in
  let tag = Bytes.create Crypto.Cmac.mac_size in
  let per_call f =
    let t0 = now_ns () in
    Array.iter f bank;
    float_of_int (now_ns () - t0) /. float_of_int (max 1 (Array.length bank))
  in
  let parse raw = ignore (Packet.View.parse v raw) in
  let auth raw =
    parse raw;
    Hvf.hop_auth_into secret scr v ~hop ~dst:sigma ~dst_off:0
  in
  let rekey raw =
    auth raw;
    Crypto.Cmac.rekey key sigma ~off:0
  in
  let hvf raw =
    Hvf.eer_hvf_into key scr ~ts:(Timebase.Ts.of_int (Bytes.length raw)) ~pkt_size:80
      ~dst:tag ~dst_off:0
  in
  let valid = ref 0 in
  let check raw =
    parse raw;
    if Hvf.eer_check secret scr v ~hop ~pkt_size:(Bytes.length raw) then incr valid
  in
  let parse = per_call parse in
  let auth = per_call auth in
  let rekey = per_call rekey in
  let hvf = per_call hvf in
  let check = per_call check in
  { parse; auth; rekey; hvf; check; all_valid = !valid = Array.length bank }

type walk = {
  make_eer_request : float;
  eer_forward : float;
  eer_backward : float;
  process_eer_reply : float;
  register : float;
}

let walker (c : conf) ~(now_ns : unit -> int) : int -> walk =
  let d = Deployment.create ~seed:c.seed (topology ()) in
  let path = Topology_gen.linear_path ~n:n_ases in
  let segr =
    match
      Deployment.setup_segr d ~path ~kind:Reservation.Core ~max_bw:segr_bw
        ~min_bw:segr_min
    with
    | Ok s -> s
    | Error e -> failwith ("side SegR setup: " ^ e)
  in
  let src = Deployment.cserv d (asn 1) in
  let gw = Deployment.gateway d (asn 1) in
  let ases = Path.ases path in
  let bw = Bandwidth.of_mbps c.eer_mbps in
  let fail what = failwith ("side walk: " ^ what) in
  fun n ->
    let stages = Array.init 5 (fun _ -> Array.make n 0.) in
    let lap i k t0 =
      let t1 = now_ns () in
      stages.(k).(i) <- float_of_int (t1 - t0);
      t1
    in
    for i = 0 to n - 1 do
      let t0 = now_ns () in
      match
        Cserv.make_eer_request src ~path ~src_host ~dst_host ~bw
          ~segr_keys:[ segr.key ] ~renew:None
      with
      | Error e -> fail e
      | Ok (req, auth) -> (
          let t1 = lap i 0 t0 in
          let final_bw =
            List.fold_left
              (fun acc a ->
                match
                  Cserv.handle_eer_request_forward (Deployment.cserv d a) ~req ~auth
                with
                | `Continue g -> Bandwidth.min acc g
                | `Deny r -> fail (Fmt.str "%a" Protocol.pp_deny_reason r))
              bw ases
          in
          let t2 = lap i 1 t1 in
          let hops =
            List.rev_map
              (fun a ->
                Cserv.handle_eer_reply_backward (Deployment.cserv d a) ~req ~final_bw)
              (List.rev ases)
          in
          let t3 = lap i 2 t2 in
          match
            Cserv.process_eer_reply src ~req ~reply:(Protocol.Granted { final_bw; hops })
          with
          | Error e -> fail e
          | Ok (eer, version, sigmas) -> (
              let t4 = lap i 3 t3 in
              match Gateway.register gw ~eer ~version ~sigmas with
              | Error e -> fail e
              | Ok () -> ignore (lap i 4 t4)))
    done;
    let median k = Stats.median (Array.to_list stages.(k)) in
    {
      make_eer_request = median 0;
      eer_forward = median 1;
      eer_backward = median 2;
      process_eer_reply = median 3;
      register = median 4;
    }

let send_along ~(now_ns : unit -> int) ~(n : int) : float =
  let engine = Net.Engine.create () in
  let cn = Control_net.create ~engine (topology ()) in
  let route = [ asn 1; asn 2 ] in
  let cls = Control_net.class_of_protection Control_net.Prioritized_control in
  let delivered = ref 0 in
  let deliver () = incr delivered in
  let t0 = now_ns () in
  for _ = 1 to n do
    Control_net.send_along cn ~route ~cls ~bytes:200 ~deliver;
    Net.Engine.run engine
  done;
  let dt = now_ns () - t0 in
  if !delivered <> n then failwith "send_along: a lossless message was lost";
  float_of_int dt /. float_of_int n
