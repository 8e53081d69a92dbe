(** A CDN video stream over Colibri — the paper's motivating workload.

    A CDN host in AS S streams 25 Mbps of video to a viewer in AS D
    for 60 seconds of simulated time over a {!Colibri.Host_stack} flow.
    EERs live only 16 s (§3.3), so the end-host stack renews the
    reservation over the networked control plane once half of each
    version has elapsed, and the gateway switches versions seamlessly
    (§4.2) — the stream never stalls. Halfway through, the underlying
    up-SegR is renewed and explicitly activated; the EER is unaffected
    by the SegR version switch. The example reports per-second delivered bitrate so the
    continuity is visible.

    Run with: [dune exec examples/video_stream.exe] *)

open Colibri_types
open Colibri_topology
open Colibri
module G = Topology_gen.Two_isd

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps
let ok = function Ok v -> v | Error e -> failwith e

let stream_rate = mbps 25.
let payload = 1300 (* a video chunk per packet *)

let () =
  Fmt.pr "== Colibri video stream (25 Mbps for 60 s) ==@.@.";
  let deployment = Deployment.create (Topology_gen.two_isd ()) in
  let db = Deployment.seg_db deployment in
  (* Infrastructure reservations (as the quickstart, tersely). *)
  let up = List.hd (Segments.Db.up_segments db ~src:G.s) in
  let up_segr =
    ok
      (Deployment.setup_segr deployment ~path:up.Segments.path ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 50.))
  in
  let down = List.hd (Segments.Db.down_segments db ~dst:G.d) in
  let _ =
    ok
      (Deployment.request_down_segr deployment ~path:down.Segments.path
         ~max_bw:(gbps 1.) ~min_bw:(mbps 50.))
  in
  let core =
    List.hd
      (Segments.Db.core_segments db
         ~src:(Path.destination up.Segments.path)
         ~dst:(Path.source down.Segments.path))
  in
  let _ =
    ok
      (Deployment.setup_segr deployment ~path:core.Segments.path
         ~kind:Reservation.Core ~max_bw:(gbps 2.) ~min_bw:(mbps 50.))
  in
  (* The player opens a reserved flow matching the known stream bitrate
     ("the host can base the amount of requested bandwidth on ... the
     known bitrate of a video stream", §3.3); its end-host stack keeps
     the EER renewed over the networked control plane. *)
  Deployment.attach_network deployment;
  let stack = Host_stack.create deployment ~asn:G.s ~host:(Ids.host 1) in
  let flow = ok (Host_stack.open_flow stack ~dst:G.d ~dst_host:(Ids.host 2) ~bw:stream_rate) in
  let eer () = Option.get (Host_stack.eer flow) in
  Fmt.pr "EER %a at %a over %a@.@." Ids.pp_res_key (eer ()).key Bandwidth.pp
    stream_rate Path.pp (eer ()).path;
  let wire = Packet.header_len ~hops:(Path.length (eer ()).path) + payload in
  let interval = 8. *. float_of_int wire /. Bandwidth.to_bps stream_rate in
  let stalls = ref 0 in
  Fmt.pr "%-6s %-14s %-10s %s@." "t[s]" "delivered" "versions" "events";
  for second = 1 to 60 do
    let events = Buffer.create 16 in
    let renewals = Host_stack.renewals flow in
    (* At t=30, the AS renews and switches its up-SegR under the
       stream. *)
    if second = 30 then begin
      let _ =
        ok
          (Deployment.setup_segr ~renew:up_segr.key deployment ~path:up_segr.path
             ~kind:Reservation.Up ~max_bw:(gbps 1.) ~min_bw:(mbps 50.))
      in
      ok (Deployment.activate_segr deployment ~key:up_segr.key);
      Buffer.add_string events "up-SegR renewed+activated; "
    end;
    (* One second of streaming. *)
    let sent = int_of_float (Float.round (1. /. interval)) in
    let delivered = ref 0 in
    for _ = 1 to sent do
      Deployment.advance deployment interval;
      if Host_stack.send flow ~payload_len:payload = Host_stack.Delivered then
        incr delivered
      else incr stalls
    done;
    if Host_stack.renewals flow > renewals then
      Buffer.add_string events "stack renewed EER; ";
    let rate_mbps = 8. *. float_of_int (!delivered * wire) /. 1e6 in
    let versions =
      List.length (Reservation.eer_valid_versions (eer ()) ~now:(Deployment.now deployment))
    in
    if second <= 5 || second mod 10 = 0 || Buffer.length events > 0 then
      Fmt.pr "%-6d %6.2f Mbps   %-10d %s@." second rate_mbps versions
        (Buffer.contents events)
  done;
  Fmt.pr "@.Stream finished: %d renewals, %d lost packets out of ~%d.@."
    (Host_stack.renewals flow) !stalls
    (60 * int_of_float (Float.round (1. /. interval)));
  if !stalls = 0 then
    Fmt.pr "Seamless: EER version transitions never interrupted the stream (§4.2).@."
