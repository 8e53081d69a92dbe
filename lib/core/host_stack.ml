(** End-host networking stack (§3.2).

    Colibri modifies the end-host stack (the SCION daemon) so that an
    application can explicitly request and renew EERs. This module
    models that stack for one host as a thin layer over the
    deployment's one renewal machine: opening a flow is path choice
    (§2.1, Appendix C) over the networked EER setup, handed to
    {!Deployment.auto_renew_eer}, so an application-level flow
    transparently outlives the 16-second EER lifetime (§4.2), renews
    under loss with retries, and falls back to another route when the
    SegRs under it lapse.

    Any transport can run on top: the gateway drops packets exceeding
    the guaranteed bandwidth, which acts as the congestion signal; a
    transport integrated tightly (à la QUIC) simply pins its sending
    rate to {!flow_bw}. *)

open Colibri_types

type flow = {
  stack : t;
  managed : Deployment.managed;
  mutable open_ : bool;
  mutable delivered : int;
}

and t = {
  deployment : Deployment.t;
  asn : Ids.asn;
  host : Ids.host;
  mutable flows : flow list;
}

let create (deployment : Deployment.t) ~(asn : Ids.asn) ~(host : Ids.host) : t =
  { deployment; asn; host; flows = [] }

(** Open a reserved flow to [dst_host] in [dst]: path choice over the
    networked EER setup, then automatic renewal. *)
let open_flow (t : t) ~(dst : Ids.asn) ~(dst_host : Ids.host) ~(bw : Bandwidth.t) :
    (flow, string) result =
  let d = t.deployment in
  Result.bind
    (Deployment.setup_eer_auto_sync d ~src:t.asn ~src_host:t.host ~dst ~dst_host ~bw)
    (fun (eer : Reservation.eer) ->
      Deployment.auto_renew_eer d ~key:eer.key
        ~route:{ path = eer.path; segr_keys = eer.segr_keys }
        ~src_host:t.host ~dst_host ~bw
      |> Result.map (fun managed ->
             let f = { stack = t; managed; open_ = true; delivered = 0 } in
             t.flows <- f :: t.flows;
             f))

(** Adjust the bandwidth the application wants; takes effect at the
    next renewal ("possibly adjust the bandwidth to shifting traffic
    demands", §4.2). *)
let set_bandwidth (f : flow) (bw : Bandwidth.t) = Deployment.set_demand f.managed bw

(** The flow's current EER as its source holds it. *)
let eer (f : flow) : Reservation.eer option =
  let key = Deployment.managed_key f.managed in
  Cserv.own_eer (Deployment.cserv f.stack.deployment key.src_as) key

(** The bandwidth currently guaranteed to the flow — what a
    QUIC-style transport would pin its sending rate to (§3.2). *)
let flow_bw (f : flow) : Bandwidth.t =
  match eer f with
  | Some e -> Reservation.eer_bw e ~now:(Deployment.now f.stack.deployment)
  | None -> Bandwidth.zero

type send_result = Delivered | Dropped_in_network | Dropped_at_gateway

(** Send one packet on the flow. *)
let send (f : flow) ~(payload_len : int) : send_result =
  if not f.open_ then Dropped_at_gateway
  else
    match
      Deployment.send_data f.stack.deployment ~src:f.stack.asn
        ~res_id:(Deployment.managed_key f.managed).res_id ~payload_len
    with
    | Ok { delivered = true; _ } ->
        f.delivered <- f.delivered + 1;
        Delivered
    | Ok _ -> Dropped_in_network
    | Error _ -> Dropped_at_gateway

(** Close the flow: stops renewing; the EER simply expires (there is
    no early-teardown mechanism for EERs, §4.2). *)
let close (f : flow) =
  f.open_ <- false;
  Deployment.stop_renewal f.managed;
  f.stack.flows <- List.filter (fun g -> g != f) f.stack.flows

let renewals (f : flow) = Deployment.renewals f.managed
let renewal_failures (f : flow) = Deployment.renewal_failures f.managed
let delivered (f : flow) = f.delivered
let open_flows (t : t) = List.length t.flows
