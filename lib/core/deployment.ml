(** A full simulated Colibri deployment: one CServ, gateway, and
    border router per AS of a topology, wired together with DRKey key
    servers and a shared clock.

    This module is the orchestration layer that moves control-plane
    requests hop-by-hop along reservation paths (Fig. 1a/1b) and data
    packets through the chain of border routers (Fig. 1c). It is what
    the examples and integration tests drive; the per-AS components it
    glues together are individually testable and benchmarkable. *)

open Colibri_types
open Colibri_topology

type as_node = {
  asn : Ids.asn;
  cserv : Cserv.t;
  gateway : Gateway.t;
  router : Router.t;
}

(* The optional network layer underneath the control plane: simulated
   links ({!Control_net}), fault injection, and the reliable-request
   machinery ({!Retry}) plus the renewal state-machine counters. *)
type network = {
  cnet : Control_net.t;
  nfaults : Net.Fault.t option;
  retry : Retry.t;
  nreg : Obs.Registry.t;
  m_renew_started : Obs.Counter.t;
  m_renew_ok : Obs.Counter.t;
  m_renew_late : Obs.Counter.t;
  m_renew_degraded : Obs.Counter.t;
  m_renew_recovered : Obs.Counter.t;
  m_renew_gave_up : Obs.Counter.t;
}

type t = {
  topo : Topology.t;
  engine : Net.Engine.t;
  nodes : as_node Ids.Asn_tbl.t;
  seg_db : Segments.Db.t; (* path segments from beaconing *)
  mutable net : network option;
}

let clock (t : t) : Timebase.clock = Net.Engine.clock t.engine
let now (t : t) : Timebase.t = Net.Engine.now t.engine
let engine (t : t) = t.engine
let topology (t : t) = t.topo

let node (t : t) (asn : Ids.asn) : as_node =
  match Ids.Asn_tbl.find_opt t.nodes asn with
  | Some n -> n
  | None -> invalid_arg (Fmt.str "Deployment.node: unknown AS %a" Ids.pp_asn asn)

let cserv (t : t) asn = (node t asn).cserv
let gateway (t : t) asn = (node t asn).gateway
let router (t : t) asn = (node t asn).router

(** Build a deployment over [topo]. [policy_for] customizes per-AS EER
    policies; [backend] selects the admission discipline every CServ
    runs (DESIGN.md §12); [router_monitoring = false] builds
    bare-fast-path routers (no OFD / duplicate filter), as used by the
    speed benchmarks. [router_auto_block] additionally blocklists a
    source AS locally once a router confirms overuse (after
    [router_confirm_after_drops] policed drops) — the full §4.8
    enforcement chain the attack scenarios exercise. *)
let create ?(policy_for = fun _ -> Cserv.default_policy)
    ?(backend = Backends.All.ntube) ?(router_monitoring = true)
    ?(router_auto_block = false) ?router_confirm_after_drops ?(seed = 42)
    (topo : Topology.t) : t =
  let engine = Net.Engine.create () in
  let clk = Net.Engine.clock engine in
  let nodes = Ids.Asn_tbl.create 64 in
  let seg_db = Segments.discover topo in
  let t = { topo; engine; nodes; seg_db; net = None } in
  Topology.ases topo
  |> List.iter (fun asn ->
         let rng = Random.State.make [| seed; Ids.hash_asn asn |] in
         let cserv =
           Cserv.create ~policy:(policy_for asn) ~rng ~backend ~clock:clk ~topo asn
         in
         let secret = Cserv.hop_secret cserv in
         let router =
           if router_monitoring then
             Router.create
               ~report:(fun ~src -> Cserv.report_misbehavior cserv ~src)
               ~auto_block:router_auto_block
               ?confirm_after_drops:router_confirm_after_drops ~secret
               ~clock:clk asn
           else
             Router.create ~ofd:`None ~duplicates:`None ~secret ~clock:clk asn
         in
         let gateway = Gateway.create ~clock:clk asn in
         Ids.Asn_tbl.replace nodes asn { asn; cserv; gateway; router });
  (* Wire slow-side DRKey fetches to the remote key servers. *)
  Ids.Asn_tbl.iter
    (fun asn n ->
      Cserv.set_fetch_remote_key n.cserv (fun fast ->
          Drkey.Key_server.fetch (Cserv.key_server (cserv t fast)) ~requester:asn))
    nodes;
  t

let seg_db (t : t) = t.seg_db

(* ---------------- The setup walk ---------------- *)

(* SegR and EER setups are one protocol (Fig. 1a/1b): a forward pass
   of per-AS admission, a backward pass carrying the path-wide minimum
   and collecting each hop's token or σ, and on a refusal a deny walk
   that releases tentative state on its way back (§3.3). One walk
   implements it over a hop transport: the synchronous one below, or
   the simulated {!Control_net} with retries further down. *)

type setup_error = { at : Ids.asn; reason : Protocol.deny_reason }

(* What reaches the source: the reply hops in path order and the final
   bandwidth, or where and why the request was refused. *)
type outcome = (Protocol.reply_hop list * Bandwidth.t, setup_error) result

let pp_setup_error ppf (e : setup_error) =
  Fmt.pf ppf "at %a: %a" Ids.pp_asn e.at Protocol.pp_deny_reason e.reason

(* How the walk's messages travel between adjacent ASes: [send] carries
   one message along [route] and runs [deliver] on arrival (or never);
   [up] says whether an AS's CServ processes requests right now. *)
type transport = {
  send : route:Ids.asn list -> bytes:int -> deliver:(unit -> unit) -> unit;
  up : Ids.asn -> bool;
}

(* One reservation request as the walk sees it: wire sizes, the
   per-AS handlers, and [conclude], which turns the walk's outcome into
   the caller's result at the source. *)
type 'r request = {
  path : Path.t;
  req_bytes : int;
  initial_bw : Bandwidth.t;
  forward_at : Ids.asn -> [ `Continue of Bandwidth.t | `Deny of Protocol.deny_reason ];
  backward_at : Ids.asn -> final_bw:Bandwidth.t -> Protocol.reply_hop;
  failure_at : Ids.asn -> unit;
  conclude : outcome -> ('r, string) result;
}

(* One pass of the walk. The forward pass admits at each live AS and
   sends hop by hop; the last hop starts the backward reply walk; a
   refusal starts the deny walk. [arrive] gets the outcome at the
   source. A dead server swallows the message, so [arrive] may never
   fire — over the network the retry timer is the only recovery. *)
let walk (tr : transport) (rq : _ request) ~(arrive : outcome -> unit) : unit =
  let reply_bytes = Protocol.reply_bytes ~hops:(Path.length rq.path) in
  (* The reply visits the granting ASes destination → source; [acc]
     collects reply hops ending up in path order at the source. *)
  let rec backward acc final_bw = function
    | [] -> ()
    | asn :: rest ->
        if tr.up asn then begin
          let acc = rq.backward_at asn ~final_bw :: acc in
          match rest with
          | [] -> arrive (Ok (acc, final_bw))
          | next :: _ ->
              tr.send ~route:[ asn; next ] ~bytes:reply_bytes ~deliver:(fun () ->
                  backward acc final_bw rest)
        end
  in
  (* The deny message travels from [from] back through the ASes that
     granted; each releases its tentative state on arrival. *)
  let rec deny_hop ~at ~reason from = function
    | [] -> arrive (Error { at; reason })
    | next :: rest ->
        tr.send ~route:[ from; next ] ~bytes:reply_bytes ~deliver:(fun () ->
            if tr.up next then begin
              rq.failure_at next;
              deny_hop ~at ~reason next rest
            end)
  in
  (* [visited_rev] are the granting ASes, nearest first. *)
  let rec forward visited_rev grants = function
    | [] -> ()
    | asn :: rest ->
        if tr.up asn then begin
          match rq.forward_at asn with
          | `Deny reason -> deny_hop ~at:asn ~reason asn visited_rev
          | `Continue bw -> (
              let visited_rev = asn :: visited_rev in
              let grants = bw :: grants in
              match rest with
              | [] ->
                  let final_bw = List.fold_left Bandwidth.min rq.initial_bw grants in
                  backward [] final_bw visited_rev
              | next :: _ ->
                  tr.send ~route:[ asn; next ] ~bytes:rq.req_bytes ~deliver:(fun () ->
                      forward visited_rev grants rest))
        end
  in
  forward [] [] (Path.ases rq.path)

(* Every on-path AS runs its cleanup; the handlers are idempotent. *)
let release_all (rq : _ request) = List.iter rq.failure_at (Path.ases rq.path)

(* Conclude at the source. A walk that granted but whose reply the
   source rejects leaves admission state behind: tear it down. *)
let settle (rq : 'r request) (outcome : outcome) : ('r, string) result =
  let r = rq.conclude outcome in
  (match (r, outcome) with Error _, Ok _ -> release_all rq | _ -> ());
  r

(* The synchronous transport: every message is delivered in place and
   every server is up, so a walk completes within the call, advances no
   simulated time, and needs no network — right for the admission
   benchmarks ("disregarding propagation delays", §6.1). One attempt,
   no retries. *)
let synchronous =
  { send = (fun ~route:_ ~bytes:_ ~deliver -> deliver ()); up = (fun _ -> true) }

let run_synchronous (rq : 'r request) : ('r, string) result =
  let result = ref (Error "setup walk never concluded") in
  walk synchronous rq ~arrive:(fun outcome -> result := settle rq outcome);
  !result

(* ---------------- Reservation requests ---------------- *)

(** A usable chain of SegRs from [src] to [dst]: the spliced path plus
    the reservation keys in path order. *)
type eer_route = { path : Path.t; segr_keys : Ids.res_key list }

let segr_request ?renew (t : t) ~(path : Path.t) ~(kind : Reservation.seg_kind)
    ~(max_bw : Bandwidth.t) ~(min_bw : Bandwidth.t) () :
    (Reservation.segr request, string) result =
  let c = cserv t (Path.source path) in
  Cserv.make_seg_request c ~path ~kind ~max_bw ~min_bw ~renew
  |> Result.map (fun (req, auth) ->
         {
           path;
           req_bytes = Protocol.seg_request_bytes req;
           initial_bw = max_bw;
           forward_at =
             (fun asn -> Cserv.handle_seg_request_forward (cserv t asn) ~req ~auth);
           backward_at =
             (fun asn ~final_bw ->
               Cserv.handle_seg_reply_backward (cserv t asn) ~req ~final_bw);
           failure_at = (fun asn -> Cserv.handle_seg_failure (cserv t asn) ~req);
           conclude =
             (function
             | Error e -> Error (Fmt.str "%a" pp_setup_error e)
             | Ok (hops, final_bw) ->
                 Cserv.process_seg_reply c ~req
                   ~reply:(Protocol.Granted { final_bw; hops }));
         })

(* On success the EER is installed at the source gateway (➎ in
   Fig. 1b) before the result is returned. *)
let eer_request ?renew (t : t) ~(route : eer_route) ~(src_host : Ids.host)
    ~(dst_host : Ids.host) ~(bw : Bandwidth.t) () :
    ((Reservation.eer * Reservation.version * bytes list) request, string) result =
  let src = Path.source route.path in
  let c = cserv t src in
  Cserv.make_eer_request c ~path:route.path ~src_host ~dst_host ~bw
    ~segr_keys:route.segr_keys ~renew
  |> Result.map (fun (req, auth) ->
         {
           path = route.path;
           req_bytes = Protocol.eer_request_bytes req;
           initial_bw = bw;
           forward_at =
             (fun asn -> Cserv.handle_eer_request_forward (cserv t asn) ~req ~auth);
           backward_at =
             (fun asn ~final_bw ->
               Cserv.handle_eer_reply_backward (cserv t asn) ~req ~final_bw);
           failure_at = (fun asn -> Cserv.handle_eer_failure (cserv t asn) ~req);
           conclude =
             (function
             | Error e ->
                 (* A stale cached SegR is invalidated so a retry
                    refetches (Appendix C). *)
                 (match e.reason with
                 | Protocol.Expired_segr k -> Cserv.invalidate_cached_segr c ~key:k
                 | _ -> ());
                 Error (Fmt.str "%a" pp_setup_error e)
             | Ok (hops, final_bw) ->
                 Result.bind
                   (Cserv.process_eer_reply c ~req
                      ~reply:(Protocol.Granted { final_bw; hops }))
                   (fun (eer, version, sigmas) ->
                     Gateway.register (gateway t src) ~eer ~version ~sigmas
                     |> Result.map (fun () -> (eer, version, sigmas))));
         })

(* ---------------- Segment-reservation orchestration ---------------- *)

(** Set up (or renew, via [renew]) a segment reservation from the first
    AS of [path]. On success the initiator's CServ holds the SegR with
    its Eq. (3) tokens. *)
let setup_segr ?renew (t : t) ~(path : Path.t) ~(kind : Reservation.seg_kind)
    ~(max_bw : Bandwidth.t) ~(min_bw : Bandwidth.t) : (Reservation.segr, string) result
    =
  Result.bind (segr_request ?renew t ~path ~kind ~max_bw ~min_bw ()) run_synchronous

(** Activate the pending version of a SegR at every on-path AS and at
    the initiator (§4.2). *)
let activate_segr (t : t) ~(key : Ids.res_key) : (unit, string) result =
  match Cserv.own_segr (cserv t key.src_as) key with
  | None -> Error "unknown SegR at initiator"
  | Some segr -> (
      let results =
        List.map
          (fun (hop : Path.hop) ->
            Cserv.handle_seg_activation (cserv t hop.asn) ~key)
          segr.path
      in
      match List.find_opt Result.is_error results with
      | Some (Error e) -> Error e
      | _ -> Reservation.activate segr ~now:(now t))

(** Ask [core] (the first AS of a down segment ending at [leaf]) to set
    up a down-SegR — down-SegRs are only created upon explicit request
    by the last AS (§3.3). The resulting SegR is registered at the
    core's CServ with [allowed] and cached at the leaf. *)
let request_down_segr ?(allowed = None) (t : t) ~(path : Path.t)
    ~(max_bw : Bandwidth.t) ~(min_bw : Bandwidth.t) :
    (Reservation.segr, string) result =
  match setup_segr t ~path ~kind:Reservation.Down ~max_bw ~min_bw with
  | Error e -> Error e
  | Ok segr -> (
      let core = Path.source path and leaf = Path.destination path in
      match Cserv.register_segr (cserv t core) ~key:segr.key ~allowed with
      | Error e -> Error e
      | Ok () ->
          (* The leaf caches the description for later lookups. *)
          let descrs = Cserv.registry_query (cserv t core) ~requester:leaf ~dst:leaf in
          Cserv.cache_remote_segrs (cserv t leaf) descrs;
          Ok segr)

(* ---------------- SegR lookup for EER construction ---------------- *)

(** Find SegR chains from [src] to [dst] following the hierarchical
    lookup of Appendix C: own up-SegRs locally; down-SegRs from the
    destination AS's CServ cache; core-SegRs from the CServ of the core
    AS where the up segment ends. Results are cached at [src]'s CServ.
    Shortest spliced path first. *)
let lookup_eer_routes (t : t) ~(src : Ids.asn) ~(dst : Ids.asn) : eer_route list =
  let now_ = now t in
  let src_cs = cserv t src in
  let ups = Cserv.own_segr_descrs src_cs ~kind:Reservation.Up ~now:now_ in
  let cores_from (core_src : Ids.asn) (core_dst : Ids.asn) : Cserv.segr_descr list =
    if Ids.equal_asn core_src core_dst then []
    else begin
      let descrs =
        Cserv.own_segr_descrs (cserv t core_src) ~kind:Reservation.Core ~now:now_
        |> List.filter (fun (d : Cserv.segr_descr) ->
               Ids.equal_asn (Path.destination d.path) core_dst)
      in
      Cserv.cache_remote_segrs src_cs descrs;
      descrs
    end
  in
  let downs =
    (* ask the destination AS's CServ (which cached them at creation) *)
    let remote = Cserv.cached_segrs (cserv t dst) ~dst in
    Cserv.cache_remote_segrs src_cs remote;
    List.filter (fun (d : Cserv.segr_descr) -> d.kind = Reservation.Down) remote
  in
  let routes = ref [] in
  let add segs =
    match segs with
    | [] -> ()
    | first :: rest ->
        let path =
          List.fold_left
            (fun acc (d : Cserv.segr_descr) -> Path.join acc d.path)
            (first : Cserv.segr_descr).path rest
        in
        routes :=
          { path; segr_keys = List.map (fun (d : Cserv.segr_descr) -> d.key) segs }
          :: !routes
  in
  let src_is_core = Topology.is_core t.topo src in
  let dst_is_core = Topology.is_core t.topo dst in
  if Ids.equal_asn src dst then []
  else begin
    (* src core → dst core *)
    if src_is_core && dst_is_core then
      cores_from src dst |> List.iter (fun c -> add [ c ]);
    (* src core → leaf: direct down, or core + down *)
    if src_is_core then
      downs
      |> List.iter (fun (d : Cserv.segr_descr) ->
             let head = Path.source d.path in
             if Ids.equal_asn head src then add [ d ]
             else cores_from src head |> List.iter (fun c -> add [ c; d ]));
    (* leaf → dst core: up, or up + core *)
    if dst_is_core then
      ups
      |> List.iter (fun (u : Cserv.segr_descr) ->
             let top = Path.destination u.path in
             if Ids.equal_asn top dst then add [ u ]
             else cores_from top dst |> List.iter (fun c -> add [ u; c ]));
    (* leaf → leaf *)
    if not (src_is_core || dst_is_core) then
      ups
      |> List.iter (fun (u : Cserv.segr_descr) ->
             let top = Path.destination u.path in
             downs
             |> List.iter (fun (d : Cserv.segr_descr) ->
                    let head = Path.source d.path in
                    if Ids.equal_asn top head then add [ u; d ]
                    else cores_from top head |> List.iter (fun c -> add [ u; c; d ])));
    List.sort
      (fun a b -> Int.compare (Path.length a.path) (Path.length b.path))
      !routes
  end

(* ---------------- End-to-end-reservation orchestration ------------- *)

(** Like {!setup_eer} but also returns the version and the unsealed
    hop authenticators — used by tests and by rogue-gateway attack
    scenarios that install the EER into additional gateways. *)
let setup_eer_full ?renew (t : t) ~(route : eer_route) ~(src_host : Ids.host)
    ~(dst_host : Ids.host) ~(bw : Bandwidth.t) :
    (Reservation.eer * Reservation.version * bytes list, string) result =
  Result.bind (eer_request ?renew t ~route ~src_host ~dst_host ~bw ()) run_synchronous

(** Set up (or renew) an end-to-end reservation along [route]. On
    success the reservation is installed at the source AS's gateway
    (➎ in Fig. 1b) and ready to carry traffic. *)
let setup_eer ?renew (t : t) ~(route : eer_route) ~(src_host : Ids.host)
    ~(dst_host : Ids.host) ~(bw : Bandwidth.t) : (Reservation.eer, string) result =
  Result.map
    (fun (eer, _, _) -> eer)
    (setup_eer_full ?renew t ~route ~src_host ~dst_host ~bw)

(** Convenience: look up a route and set up an EER over the shortest
    one; tries alternatives on failure (path choice, §2.1). *)
let setup_eer_auto (t : t) ~(src : Ids.asn) ~(src_host : Ids.host) ~(dst : Ids.asn)
    ~(dst_host : Ids.host) ~(bw : Bandwidth.t) : (Reservation.eer, string) result =
  let rec try_routes last_err = function
    | [] ->
        Error
          (Option.value last_err
             ~default:(Fmt.str "no SegR route from %a to %a" Ids.pp_asn src Ids.pp_asn dst))
    | route :: rest -> (
        match setup_eer t ~route ~src_host ~dst_host ~bw with
        | Ok eer -> Ok eer
        | Error e -> try_routes (Some e) rest)
  in
  try_routes None (lookup_eer_routes t ~src ~dst)

(* ---------------- Networked control plane ---------------- *)

(* The same walk over the simulated {!Control_net}, with loss, outages,
   and {!Retry}: requests time out, back off, retransmit, and on budget
   exhaustion release their tentative admission state (the paper's
   cleanup-by-timeout, §3.3). Handler idempotence makes at-least-once
   delivery safe: a retransmit is answered from the recorded grant. *)

let attach_network ?scheduler ?delay ?faults ?(retry_policy = Retry.default_policy)
    ?(retry_seed = 0x5E77) (t : t) : unit =
  let nreg = Obs.Registry.create () in
  let cnet =
    Control_net.create ?scheduler ?delay ?faults ~registry:nreg ~engine:t.engine
      t.topo
  in
  let retry =
    Retry.create ~policy:retry_policy ~seed:retry_seed ~registry:nreg
      ~engine:t.engine ()
  in
  let c = Obs.Registry.counter nreg in
  t.net <-
    Some
      {
        cnet;
        nfaults = faults;
        retry;
        nreg;
        m_renew_started = c "renewal_started_total";
        m_renew_ok = c "renewal_ok_total";
        m_renew_late = c "renewal_late_total";
        m_renew_degraded = c "renewal_degraded_total";
        m_renew_recovered = c "renewal_recovered_total";
        m_renew_gave_up = c "renewal_gave_up_total";
      }

let network (t : t) : network =
  match t.net with
  | Some n -> n
  | None -> invalid_arg "Deployment: no network attached (call attach_network)"

let network_metrics (t : t) = (network t).nreg
let control_net (t : t) = (network t).cnet
let retrier (t : t) = (network t).retry

(** Is the AS's control service processing requests right now? Always
    true without fault injection. *)
let server_up (t : t) (asn : Ids.asn) : bool =
  match t.net with
  | Some { nfaults = Some f; _ } -> Net.Fault.server_up f ~asn ~now:(now t)
  | _ -> true

(* Run a request over the network. Each transmission attempt is a fresh
   walk; [Retry.complete] arbitrates so exactly one arrival concludes
   the request. A successful walk that loses the race after the request
   was written off re-created admission state — it is torn down on the
   spot (the source's teardown of an unwanted grant). *)
let run_networked (n : network) (t : t) ~(cls : Net.Traffic_class.t)
    (rq : 'r request) ~(on_result : ('r, string) result -> unit) : unit =
  let tr =
    {
      send =
        (fun ~route ~bytes ~deliver ->
          Control_net.send_along n.cnet ~route ~cls ~bytes ~deliver);
      up = server_up t;
    }
  in
  let succeeded = ref false in
  let handle = ref None in
  let arrive outcome =
    match !handle with
    | Some h when Retry.complete n.retry h ->
        let r = settle rq outcome in
        succeeded := Result.is_ok r;
        on_result r
    | _ -> (
        (* A late or duplicate arrival: a grant nobody took is undone. *)
        match outcome with Ok _ when not !succeeded -> release_all rq | _ -> ())
  in
  let h =
    Retry.run n.retry
      ~send:(fun _attempt -> walk tr rq ~arrive)
      ~on_exhausted:(fun () ->
        (* Budget exhausted: the source cannot know which hops hold
           tentative state, so every on-path AS runs its
           cleanup-by-timeout (§3.3). *)
        release_all rq;
        on_result (Error "retry budget exhausted"))
      ()
  in
  handle := Some h

(* Fetch the slow-side DRKeys the source needs to authenticate a
   request towards every on-path AS, over the network with retries —
   one round trip per missing key, sequentially along the path prefix.
   Cached keys and the source itself are skipped. *)
let prefetch_drkeys (n : network) (t : t) ~(src : Ids.asn) ~(ases : Ids.asn list)
    ~(cls : Net.Traffic_class.t) (k : (unit, string) result -> unit) : unit =
  let cache = Cserv.drkey_cache (cserv t src) in
  let route_to target =
    let rec take = function
      | [] -> []
      | x :: xs -> x :: (if Ids.equal_asn x target then [] else take xs)
    in
    take ases
  in
  let rec next = function
    | [] -> k (Ok ())
    | a :: rest when Ids.equal_asn a src -> next rest
    | a :: rest when Option.is_some (Drkey.Cache.find cache ~fast:a) -> next rest
    | a :: rest ->
        let route = route_to a in
        let handle = ref None in
        let h =
          Retry.run n.retry
            ~send:(fun _ ->
              Control_net.send_along n.cnet ~route ~cls
                ~bytes:Protocol.drkey_request_bytes
                ~deliver:(fun () ->
                  if server_up t a then begin
                    let key =
                      Drkey.Key_server.fetch
                        (Cserv.key_server (cserv t a))
                        ~requester:src
                    in
                    Control_net.send_along n.cnet ~route:(List.rev route) ~cls
                      ~bytes:Protocol.drkey_reply_bytes
                      ~deliver:(fun () ->
                        match !handle with
                        | Some h when Retry.complete n.retry h ->
                            Drkey.Cache.put cache key;
                            next rest
                        | _ -> ())
                  end))
            ~on_exhausted:(fun () ->
              k
                (Error
                   (Fmt.str "DRKey fetch from %a: retry budget exhausted"
                      Ids.pp_asn a)))
            ()
        in
        handle := Some h
  in
  next ases

(* Renewals travel over the existing reservation (§5.3); initial
   setups use the Appendix-B prioritization. Then: prefetch the DRKeys,
   build the request, and run it over the network. *)
let launch ~renewal ?protection (t : t) ~(path : Path.t)
    (make : unit -> ('r request, string) result)
    ~(on_result : ('r, string) result -> unit) : unit =
  let n = network t in
  let protection =
    Option.value protection
      ~default:
        (if renewal then Control_net.Over_reservation
         else Control_net.Prioritized_control)
  in
  let cls = Control_net.class_of_protection protection in
  prefetch_drkeys n t ~src:(Path.source path) ~ases:(Path.ases path) ~cls (fun r ->
      match Result.bind r make with
      | Error e -> on_result (Error e)
      | Ok rq -> run_networked n t ~cls rq ~on_result)

(* Networked {!setup_segr}: the result arrives via [on_result] once the
   engine has run far enough. *)
let setup_segr_net ?renew ?protection (t : t) ~(path : Path.t)
    ~(kind : Reservation.seg_kind) ~(max_bw : Bandwidth.t) ~(min_bw : Bandwidth.t)
    ~(on_result : (Reservation.segr, string) result -> unit) : unit =
  launch ~renewal:(Option.is_some renew) ?protection t ~path
    (segr_request ?renew t ~path ~kind ~max_bw ~min_bw)
    ~on_result

(** Networked {!setup_eer}; the reservation is installed at the source
    gateway before [on_result] fires. *)
let setup_eer_net ?renew ?protection (t : t) ~(route : eer_route)
    ~(src_host : Ids.host) ~(dst_host : Ids.host) ~(bw : Bandwidth.t)
    ~(on_result : (Reservation.eer, string) result -> unit) : unit =
  launch ~renewal:(Option.is_some renew) ?protection t ~path:route.path
    (eer_request ?renew t ~route ~src_host ~dst_host ~bw)
    ~on_result:(fun r -> on_result (Result.map (fun (eer, _, _) -> eer) r))

(* Start a networked operation and drive the engine until it
   concludes (at most [timeout] simulated seconds). *)
let run_until_result (t : t) ~(timeout : float)
    (start : ((('a, string) result -> unit) -> unit)) : ('a, string) result =
  let result = ref None in
  start (fun r -> result := Some r);
  let deadline = now t +. timeout in
  let rec loop () =
    match !result with
    | Some r -> r
    | None ->
        if now t >= deadline then Error "networked operation timed out"
        else if Net.Engine.step t.engine then loop ()
        else Error "networked operation never concluded (engine drained)"
  in
  loop ()

(** Blocking networked {!setup_segr}: runs the engine until the walk
    concludes (at most [timeout] simulated seconds). *)
let setup_segr_sync ?renew ?protection ?(timeout = 120.) (t : t) ~(path : Path.t)
    ~(kind : Reservation.seg_kind) ~(max_bw : Bandwidth.t) ~(min_bw : Bandwidth.t) :
    (Reservation.segr, string) result =
  run_until_result t ~timeout (fun on_result ->
      setup_segr_net ?renew ?protection t ~path ~kind ~max_bw ~min_bw ~on_result)

(** Blocking convenience over {!setup_eer_net}. *)
let setup_eer_sync ?renew ?protection ?(timeout = 120.) (t : t) ~(route : eer_route)
    ~(src_host : Ids.host) ~(dst_host : Ids.host) ~(bw : Bandwidth.t) :
    (Reservation.eer, string) result =
  run_until_result t ~timeout (fun on_result ->
      setup_eer_net ?renew ?protection t ~route ~src_host ~dst_host ~bw ~on_result)

(* ---------------- Renewal before expiry ---------------- *)

(* The renewal state machine (§4.2 + §5.3): a managed reservation is
   renewed over itself at a configurable fraction of its lifetime; on
   failure it retries while the reservation is still valid, and once it
   lapses it degrades to a best-effort fresh setup (new res_id, so the
   managed key changes). After [max_recovery_failures] consecutive
   failed recoveries the machine gives up. Every outcome is counted in
   the network registry. *)

type managed = {
  mutable mkey : Ids.res_key;
  origin :
    [ `Segr of Reservation.seg_kind * Path.t * Bandwidth.t * Bandwidth.t
    | `Eer of eer_route * Ids.host * Ids.host * Bandwidth.t ];
  fraction : float; (* of the lifetime elapsed when renewal starts *)
  mutable stopped : bool;
  mutable failures : int; (* consecutive, reset on any success *)
}

let managed_key (m : managed) = m.mkey
let stop_renewal (m : managed) = m.stopped <- true

let max_recovery_failures = 5
let recovery_backoff failures = Float.min 8. (0.5 *. (2. ** float_of_int failures))

(* Current expiry of the managed reservation at its source, [None] when
   it is gone or never activated. *)
let managed_expiry (t : t) (m : managed) : Timebase.t option =
  match m.origin with
  | `Segr _ -> (
      match Cserv.own_segr (cserv t m.mkey.src_as) m.mkey with
      | Some s -> Option.map (fun (v : Reservation.version) -> v.exp_time) s.active
      | None -> None)
  | `Eer _ -> (
      match Cserv.own_eer (cserv t m.mkey.src_as) m.mkey with
      | Some e ->
          List.fold_left
            (fun acc (v : Reservation.version) ->
              match acc with
              | None -> Some v.exp_time
              | Some x -> Some (Float.max x v.exp_time))
            None
            (Reservation.eer_valid_versions e ~now:(now t))
      | None -> None)

let lifetime_of (m : managed) =
  match m.origin with
  | `Segr _ -> Reservation.segr_lifetime
  | `Eer _ -> Reservation.eer_lifetime

(* A networked setup of the managed reservation — a renewal over
   [renew], or a fresh setup — reporting the resulting key. Renewals
   leave a SegR's new version pending (§4.2); activation is
   instantaneous here — the activation message rides the reservation
   itself and is not part of the modeled failure surface. *)
let setup_managed ?renew ?protection (t : t) (m : managed)
    (on_result : (Ids.res_key, string) result -> unit) : unit =
  match m.origin with
  | `Segr (kind, path, max_bw, min_bw) ->
      setup_segr_net ?renew ?protection t ~path ~kind ~max_bw ~min_bw
        ~on_result:(fun r ->
          on_result
            (Result.bind r (fun (s : Reservation.segr) ->
                 if Option.is_none renew then Ok s.key
                 else Result.map (fun () -> s.key) (activate_segr t ~key:s.key))))
  | `Eer (route, src_host, dst_host, bw) ->
      setup_eer_net ?renew ?protection t ~route ~src_host ~dst_host ~bw
        ~on_result:(fun r -> on_result (Result.map (fun (e : Reservation.eer) -> e.key) r))

(* Renew over the existing reservation; on a lapse, degrade to a fresh
   best-effort setup under the new key. *)
let rec renew_cycle (t : t) (m : managed) : unit =
  let n = network t in
  if m.stopped then ()
  else begin
    Obs.Counter.incr n.m_renew_started;
    let old_exp = managed_expiry t m in
    let lapsed =
      match old_exp with None -> true | Some e -> now t >= e
    in
    if lapsed then degrade t m
    else
      let on_result = function
        | Ok _ ->
            m.failures <- 0;
            let late =
              match old_exp with Some e -> now t >= e | None -> true
            in
            Obs.Counter.incr (if late then n.m_renew_late else n.m_renew_ok);
            schedule_next t m
        | Error _ ->
            m.failures <- m.failures + 1;
            let still_valid =
              match managed_expiry t m with Some e -> now t < e | None -> false
            in
            if still_valid then
              (* Retry soon, capped, while the reservation lives. *)
              Net.Engine.schedule t.engine ~delay:(recovery_backoff m.failures)
                (fun () -> renew_cycle t m)
            else degrade t m
      in
      setup_managed ~renew:m.mkey t m on_result
  end

(* The reservation lapsed: best-effort re-setup under a fresh res_id. *)
and degrade (t : t) (m : managed) : unit =
  let n = network t in
  if m.stopped then ()
  else begin
    Obs.Counter.incr n.m_renew_degraded;
    let on_result = function
      | Ok (key : Ids.res_key) ->
          m.mkey <- key;
          m.failures <- 0;
          Obs.Counter.incr n.m_renew_recovered;
          schedule_next t m
      | Error _ ->
          m.failures <- m.failures + 1;
          if m.failures > max_recovery_failures then begin
            Obs.Counter.incr n.m_renew_gave_up;
            m.stopped <- true
          end
          else
            Net.Engine.schedule t.engine ~delay:(recovery_backoff m.failures)
              (fun () -> degrade t m)
    in
    setup_managed ~protection:Control_net.Prioritized_control t m on_result
  end

and schedule_next (t : t) (m : managed) : unit =
  if m.stopped then ()
  else
    match managed_expiry t m with
    | None ->
        (* Nothing valid to renew over anymore. *)
        Net.Engine.schedule t.engine ~delay:0. (fun () -> degrade t m)
    | Some exp ->
        let at = exp -. ((1. -. m.fraction) *. lifetime_of m) in
        if at <= now t then
          Net.Engine.schedule t.engine ~delay:0. (fun () -> renew_cycle t m)
        else Net.Engine.schedule_at t.engine ~time:at (fun () -> renew_cycle t m)

(** Keep a SegR alive: renew it over itself once [fraction] of its
    lifetime has elapsed, degrade to a fresh setup when it lapses.
    [max_bw]/[min_bw] are reused for renewals and recoveries. *)
let auto_renew_segr ?(fraction = 0.7) (t : t) ~(key : Ids.res_key)
    ~(max_bw : Bandwidth.t) ~(min_bw : Bandwidth.t) : (managed, string) result =
  if fraction <= 0. || fraction >= 1. then
    invalid_arg "Deployment.auto_renew_segr: fraction outside (0,1)";
  match Cserv.own_segr (cserv t key.src_as) key with
  | None -> Error "auto_renew_segr: unknown SegR at initiator"
  | Some s ->
      let m =
        {
          mkey = key;
          origin = `Segr (s.kind, s.path, max_bw, min_bw);
          fraction;
          stopped = false;
          failures = 0;
        }
      in
      schedule_next t m;
      Ok m

(** Keep an EER alive by renewing before each 16 s version expires
    (§4.2: versions overlap, so traffic never stalls while the renewal
    is in flight). *)
let auto_renew_eer ?(fraction = 0.5) (t : t) ~(key : Ids.res_key)
    ~(route : eer_route) ~(src_host : Ids.host) ~(dst_host : Ids.host)
    ~(bw : Bandwidth.t) : (managed, string) result =
  if fraction <= 0. || fraction >= 1. then
    invalid_arg "Deployment.auto_renew_eer: fraction outside (0,1)";
  match Cserv.own_eer (cserv t key.src_as) key with
  | None -> Error "auto_renew_eer: unknown EER at initiator"
  | Some _ ->
      let m =
        {
          mkey = key;
          origin = `Eer (route, src_host, dst_host, bw);
          fraction;
          stopped = false;
          failures = 0;
        }
      in
      schedule_next t m;
      Ok m

(** Audit every AS's admission state; [[]] means no AS leaks. *)
let audit_all (t : t) : string list =
  Ids.Asn_tbl.fold (fun _ n acc -> Cserv.audit n.cserv @ acc) t.nodes []

(* ---------------- Data plane ---------------- *)

type delivery = {
  delivered : bool;
  dropped_at : (Ids.asn * Router.drop_reason) option;
  hops_traversed : int;
}

(** Send one data packet over an EER: gateway processing at the source
    AS, then parse+validate+forward at every border router on the path
    (Fig. 1c). Returns where the packet ended up. *)
let send_data (t : t) ~(src : Ids.asn) ~(res_id : Ids.res_id) ~(payload_len : int) :
    (delivery, Gateway.drop_reason) result =
  match Gateway.send (gateway t src) ~res_id ~payload_len with
  | Error e -> Error e
  | Ok (packet, _egress) ->
      let raw = Packet.to_bytes packet in
      let rec walk hops = function
        | [] -> Ok { delivered = true; dropped_at = None; hops_traversed = hops }
        | (hop : Path.hop) :: rest -> (
            match Router.process_bytes (router t hop.asn) ~raw ~payload_len with
            | Ok (Router.Forward _) -> walk (hops + 1) rest
            | Ok (Router.Deliver _) ->
                Ok { delivered = true; dropped_at = None; hops_traversed = hops + 1 }
            | Ok Router.To_cserv ->
                Ok { delivered = true; dropped_at = None; hops_traversed = hops + 1 }
            | Error reason ->
                Ok
                  {
                    delivered = false;
                    dropped_at = Some (hop.asn, reason);
                    hops_traversed = hops;
                  })
      in
      walk 0 packet.path

(** Advance simulated time. *)
let advance (t : t) (dt : float) = Net.Engine.run t.engine ~until:(now t +. dt)
