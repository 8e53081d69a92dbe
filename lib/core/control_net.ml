(** Control-plane message transport over the simulated network, and
    the denial-of-capability protections of §5.3.

    {!Deployment} runs one setup walk over two transports: a
    synchronous one that handles each message in place ("disregarding
    propagation delays", §6.1, as the admission benchmarks need), and
    this module, for experiments about the {e delivery} of control
    traffic: one simulated link per topology edge, with the class-based
    queuing of Appendix B.

    It demonstrates the paper's DoC story measurably:

    - initial SegReqs travel as best-effort traffic (§4.4) but "ASes
      can use the isolation mechanisms described in Appendix B to
      forward SegReqs with higher priority than best-effort traffic"
      (§5.3) — sending them as {!Net.Traffic_class.Colibri_control}
      keeps them deliverable under best-effort floods;
    - renewals travel {e over the existing reservation} as Colibri
      control traffic and are thus always isolated from best-effort
      congestion (§5.3 "Protected Control Traffic").

    The test suite measures both: a control-class message keeps its
    propagation latency under a 3× link flood while a best-effort
    message starves. *)

open Colibri_types
open Colibri_topology

type message = { bytes : int; track : bool; deliver : unit -> unit }

(* Round-trip accounting (DESIGN.md §7): every tracked control message
   ends up exactly once in delivered or lost, so after the engine
   drains, sent = delivered + lost — the invariant the chaos suite
   asserts. Losses cover tail drops, fault-injected drops (loss, link
   flaps), and broken routes; flood filler is not tracked. *)
type metrics = {
  m_sent : Obs.Counter.t;
  m_delivered : Obs.Counter.t;
  m_lost : Obs.Counter.t;
  m_flood_packets : Obs.Counter.t;
}

type t = {
  engine : Net.Engine.t;
  topo : Topology.t;
  (* One directed link per topology edge, keyed by (src, dst). *)
  links : message Net.Link.t Ids.Asn_pair_tbl.t;
  scheduler : Net.Link.scheduler;
  delay : float;
  faults : Net.Fault.t option;
  registry : Obs.Registry.t;
  metrics : metrics;
}

let link_key (a : Ids.asn) (b : Ids.asn) = (a, b)

(** Build the directed link mesh of the topology. [scheduler] defaults
    to the strict-priority queuing of Appendix B; [delay] is the
    per-link propagation delay; [faults] subjects every tracked message
    to the fault injector's per-link verdicts. *)
let create ?(scheduler = Net.Link.Strict_priority) ?(delay = 0.005) ?faults
    ?(registry = Obs.Registry.create ()) ~(engine : Net.Engine.t) (topo : Topology.t)
    : t =
  let metrics =
    {
      m_sent = Obs.Registry.counter registry "control_net_messages_sent_total";
      m_delivered =
        Obs.Registry.counter registry "control_net_messages_delivered_total";
      m_lost = Obs.Registry.counter registry "control_net_messages_lost_total";
      m_flood_packets =
        Obs.Registry.counter registry "control_net_flood_packets_total";
    }
  in
  let t =
    { engine; topo; links = Ids.Asn_pair_tbl.create 64; scheduler; delay;
      faults; registry; metrics }
  in
  Topology.ases topo
  |> List.iter (fun asn ->
         Topology.links topo asn
         |> List.iter (fun (l : Topology.link) ->
                let key = link_key asn l.remote_as in
                if not (Ids.Asn_pair_tbl.mem t.links key) then
                  Ids.Asn_pair_tbl.replace t.links key
                    (Net.Link.create ~engine ~capacity:l.capacity ~delay ~scheduler
                       ~on_drop:(fun (p : message Net.Link.packet) ->
                         if p.payload.track then Obs.Counter.incr metrics.m_lost)
                       ~deliver:(fun (p : message Net.Link.packet) ->
                         p.payload.deliver ())
                       ())));
  t

let link (t : t) ~(src : Ids.asn) ~(dst : Ids.asn) : message Net.Link.t option =
  Ids.Asn_pair_tbl.find_opt t.links (link_key src dst)

let metrics (t : t) = t.registry
let sent_count (t : t) = Obs.Counter.value t.metrics.m_sent
let delivered_count (t : t) = Obs.Counter.value t.metrics.m_delivered
let lost_count (t : t) = Obs.Counter.value t.metrics.m_lost

(** Inject best-effort background traffic on the [src → dst] link — the
    flooding adversary of §5.3. Returns the source so tests can stop
    it. *)
let flood (t : t) ~(src : Ids.asn) ~(dst : Ids.asn) ~(rate : Bandwidth.t)
    ?(packet_bytes = 1500) () : Net.Source.t =
  match link t ~src ~dst with
  | None -> invalid_arg "Control_net.flood: no such link"
  | Some l ->
      let s =
        Net.Source.create ~engine:t.engine ~rate ~packet_bytes ~emit:(fun bytes ->
            Obs.Counter.incr t.metrics.m_flood_packets;
            Net.Link.send l ~bytes ~cls:Net.Traffic_class.Best_effort
              { bytes; track = false; deliver = ignore })
      in
      Net.Source.start s;
      s

(** Send one control-plane message of [bytes] along the AS-level
    [route] (adjacent ASes), in the given traffic class; [deliver]
    fires when the last hop receives it. Messages that are tail-dropped
    on a congested link, killed by the fault injector, or sent down a
    broken route count as lost — exactly the DoC exposure of
    unprotected setup requests, widened to the full failure model. *)
let send_along (t : t) ~(route : Ids.asn list) ~(cls : Net.Traffic_class.t)
    ~(bytes : int) ~(deliver : unit -> unit) : unit =
  Obs.Counter.incr t.metrics.m_sent;
  let lose () = Obs.Counter.incr t.metrics.m_lost in
  let rec hop = function
    | [] | [ _ ] ->
        Obs.Counter.incr t.metrics.m_delivered;
        deliver ()
    | a :: (b :: _ as rest) -> (
        match link t ~src:a ~dst:b with
        | None -> lose () (* broken route *)
        | Some l -> (
            let forward () =
              Net.Link.send l ~bytes ~cls
                { bytes; track = true; deliver = (fun () -> hop rest) }
            in
            match t.faults with
            | None -> forward ()
            | Some f -> (
                match
                  Net.Fault.judge f ~src:a ~dst:b ~now:(Net.Engine.now t.engine)
                with
                | Net.Fault.Drop _ -> lose ()
                | Net.Fault.Deliver { extra_delay } ->
                    if extra_delay > 0. then
                      Net.Engine.schedule t.engine ~delay:extra_delay forward
                    else forward ())))
  in
  hop route

(** Measure the one-way latency of a control message along [route]
    under current network conditions; [None] if it was not delivered
    within [timeout] simulated seconds. The engine is run forward up
    to [timeout]. *)
let measure_latency (t : t) ~(route : Ids.asn list) ~(cls : Net.Traffic_class.t)
    ~(bytes : int) ~(timeout : float) : float option =
  let t0 = Net.Engine.now t.engine in
  let arrival = ref None in
  send_along t ~route ~cls ~bytes ~deliver:(fun () ->
      if Option.is_none !arrival then arrival := Some (Net.Engine.now t.engine -. t0));
  Net.Engine.run t.engine ~until:(t0 +. timeout);
  !arrival

(** The paper's two control-traffic protection levels (§5.3), as data:
    how a request class is carried. *)
type protection =
  | Unprotected_best_effort (* naive initial SegReq *)
  | Prioritized_control (* SegReq with App.-B prioritization *)
  | Over_reservation (* renewal/EEReq over an existing SegR *)

let class_of_protection : protection -> Net.Traffic_class.t = function
  | Unprotected_best_effort -> Net.Traffic_class.Best_effort
  | Prioritized_control | Over_reservation -> Net.Traffic_class.Colibri_control
