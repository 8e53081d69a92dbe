(** Quickstart: the smallest complete Colibri session.

    Builds the paper's running topology (two ISDs, Fig. 1 enriched),
    establishes the three segment reservations an end-to-end path
    needs (up, core, down — §3.3), sets up a host-to-host EER over
    them, and sends authenticated traffic through every border router
    on the path.

    Run with: [dune exec examples/quickstart.exe] *)

open Colibri_types
open Colibri_topology
open Colibri
module G = Topology_gen.Two_isd

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps
let ok = function Ok v -> v | Error e -> failwith e

let () =
  Fmt.pr "== Colibri quickstart ==@.@.";
  (* 1. A SCION-like topology with two ISDs; beaconing discovers the
     path segments. *)
  let topo = Topology_gen.two_isd () in
  let deployment = Deployment.create topo in
  let db = Deployment.seg_db deployment in
  Fmt.pr "Topology: %d ASes in %d ISDs; beaconing found %d segments.@."
    (List.length (Topology.ases topo))
    (List.length (Topology.isds topo))
    (Segments.Db.size db);

  (* 2. AS S reserves bandwidth up to its core (up-SegR). *)
  let up = List.hd (Segments.Db.up_segments db ~src:G.s) in
  let up_segr =
    ok
      (Deployment.setup_segr deployment ~path:up.Segments.path ~kind:Reservation.Up
         ~max_bw:(gbps 2.) ~min_bw:(mbps 10.))
  in
  Fmt.pr "Up-SegR   %a: %a along %a@." Ids.pp_res_key up_segr.key Bandwidth.pp
    (Reservation.segr_bw up_segr ~now:(Deployment.now deployment))
    Path.pp up_segr.path;

  (* 3. AS D asks its core W1 for a down-SegR (§3.3: down-SegRs are
     created upon explicit request by the last AS). *)
  let down = List.hd (Segments.Db.down_segments db ~dst:G.d) in
  let down_segr =
    ok
      (Deployment.request_down_segr deployment ~path:down.Segments.path
         ~max_bw:(gbps 2.) ~min_bw:(mbps 10.))
  in
  Fmt.pr "Down-SegR %a: %a along %a@." Ids.pp_res_key down_segr.key Bandwidth.pp
    (Reservation.segr_bw down_segr ~now:(Deployment.now deployment))
    Path.pp down_segr.path;

  (* 4. Core-SegR between the two ISDs. *)
  let core_src = Path.destination up.Segments.path in
  let core_dst = Path.source down.Segments.path in
  let core = List.hd (Segments.Db.core_segments db ~src:core_src ~dst:core_dst) in
  let core_segr =
    ok
      (Deployment.setup_segr deployment ~path:core.Segments.path
         ~kind:Reservation.Core ~max_bw:(gbps 5.) ~min_bw:(mbps 10.))
  in
  Fmt.pr "Core-SegR %a: %a along %a@.@." Ids.pp_res_key core_segr.key Bandwidth.pp
    (Reservation.segr_bw core_segr ~now:(Deployment.now deployment))
    Path.pp core_segr.path;

  (* 5. Host h1 in S reserves 100 Mbps end-to-end to host h2 in D. The
     CServ splices the SegRs into a full path (Appendix C lookup). *)
  let eer =
    ok
      (Deployment.setup_eer_auto deployment ~src:G.s ~src_host:(Ids.host 1) ~dst:G.d
         ~dst_host:(Ids.host 2) ~bw:(mbps 100.))
  in
  Fmt.pr "EER %a over %d SegRs:@.  %a@.@." Ids.pp_res_key eer.key
    (List.length eer.segr_keys) Path.pp eer.path;

  (* 6. Send traffic: the gateway monitors, stamps and authenticates
     each packet; every border router validates it statelessly. *)
  let delivered = ref 0 in
  for _ = 1 to 100 do
    Deployment.advance deployment 0.001;
    match
      Deployment.send_data deployment ~src:G.s ~res_id:eer.key.res_id
        ~payload_len:1000
    with
    | Ok { delivered = true; _ } -> incr delivered
    | Ok { dropped_at = Some (asn, reason); _ } ->
        Fmt.pr "dropped at %a: %a@." Ids.pp_asn asn Router.pp_drop_reason reason
    | Ok _ -> ()
    | Error e -> Fmt.pr "gateway refused: %a@." Gateway.pp_drop_reason e
  done;
  Fmt.pr "Sent 100 packets end-to-end; %d delivered through %d border routers each.@."
    !delivered (Path.length eer.path);

  (* 7. A forged packet (random authenticators) is dropped at the very
     first router — the §5.1 guarantee in one line. *)
  let gw = Deployment.gateway deployment G.s in
  ignore (Result.get_ok (Gateway.send_bytes gw ~res_id:eer.key.res_id ~payload_len:0));
  let pkt = Result.get_ok (Packet.of_bytes (Bytes.sub (Gateway.out gw) 0 (Gateway.out_len gw))) in
  let forged = { pkt with Packet.hvfs = Array.map (fun _ -> Bytes.make 4 '!') pkt.Packet.hvfs } in
  let forged_accepted =
    match
      Router.process_bytes (Deployment.router deployment G.s)
        ~raw:(Packet.to_bytes forged) ~payload_len:0
    with
    | Error reason ->
        Fmt.pr "Forged packet rejected: %a.@." Router.pp_drop_reason reason;
        false
    | Ok _ ->
        Fmt.pr "BUG: forged packet accepted!@.";
        true
  in
  Fmt.pr "@.Done.@.";
  if forged_accepted || !delivered < 100 then exit 1
