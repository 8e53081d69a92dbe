(** End-host networking stack (§3.2).

    Colibri modifies the end-host stack (the SCION daemon) so that an
    application can explicitly request and renew EERs. This module
    models that stack for one host over {!Deployment}'s one renewal
    machine: it looks up SegR routes (Appendix C), sets the EER up
    over the first route that grants (path choice, §2.1) on the
    networked control plane, and hands it to
    {!Deployment.auto_renew_eer}, so an application-level flow
    transparently outlives the 16-second EER lifetime (§4.2), retries
    under loss, and moves to another route when the SegRs under it
    lapse. The deployment needs {!Deployment.attach_network}.

    Any transport can run on top: the gateway drops packets exceeding
    the guaranteed bandwidth, which acts as the congestion signal; a
    transport integrated tightly (à la QUIC) pins its sending rate to
    {!flow_bw}. *)

open Colibri_types

type t
(** One host's stack, bound to a deployment, an AS, and a host
    address. *)

type flow
(** An application flow backed by an auto-renewing EER. *)

val create : Deployment.t -> asn:Ids.asn -> host:Ids.host -> t

val open_flow :
  t -> dst:Ids.asn -> dst_host:Ids.host -> bw:Bandwidth.t -> (flow, string) result
(** Path choice over {!Deployment.setup_eer_auto_sync}, then
    {!Deployment.auto_renew_eer}. *)

val set_bandwidth : flow -> Bandwidth.t -> unit
(** Adjust the demanded bandwidth; takes effect at the next renewal
    ("possibly adjust the bandwidth to shifting traffic demands",
    §4.2). *)

val eer : flow -> Reservation.eer option
(** The flow's current EER as its source holds it; its key changes
    when a lapse forces a fresh setup. *)

val flow_bw : flow -> Bandwidth.t
(** The bandwidth currently guaranteed to the flow. *)

type send_result = Delivered | Dropped_in_network | Dropped_at_gateway

val send : flow -> payload_len:int -> send_result

val close : flow -> unit
(** Stop renewing; the EER simply expires (there is no early-teardown
    mechanism for EERs, §4.2). *)

val renewals : flow -> int
val renewal_failures : flow -> int
(** The flow's successful and failed renewals and recoveries. *)

val delivered : flow -> int
val open_flows : t -> int
