(** DDoS resilience walkthrough (§5): the three volumetric attacks and
    how Colibri neutralizes each.

    A victim flow holds a 100 Mbps EER from S to its core Y1 across a
    contested 40 Gbps link. Three adversaries attack in turn:

    + a best-effort botnet floods the shared link — traffic isolation
      (Appendix B) keeps the reservation untouched;
    + an off-path adversary injects bogus Colibri packets with forged
      authenticators — the routers' stateless crypto check drops every
      one;
    + a compromised neighbor AS overuses its own legitimate
      reservation — the overuse-flow detector flags it, policing limits
      it to its reserved rate, and persistent abuse gets the AS
      blocklisted and its future reservations denied.

    Run with: [dune exec examples/ddos_defense.exe] *)

open Colibri_types
open Colibri_topology
open Colibri
module G = Topology_gen.Two_isd

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps
let ok = function Ok v -> v | Error e -> failwith e

let () =
  Fmt.pr "== Colibri under attack ==@.@.";
  let deployment = Deployment.create (Topology_gen.two_isd ()) in
  let db = Deployment.seg_db deployment in
  (* Victim: 100 Mbps EER from S (host 1) to core Y1 (host 2). *)
  let up = List.hd (Segments.Db.up_segments db ~src:G.s) in
  let _ =
    ok
      (Deployment.setup_segr deployment ~path:up.Segments.path ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 100.))
  in
  let victim =
    ok
      (Deployment.setup_eer_auto deployment ~src:G.s ~src_host:(Ids.host 1)
         ~dst:G.y1 ~dst_host:(Ids.host 2) ~bw:(mbps 100.))
  in
  Fmt.pr "Victim EER %a: 100 Mbps over %a@.@." Ids.pp_res_key victim.key Path.pp
    victim.path;
  let send_victim () =
    Deployment.advance deployment 0.0001;
    Deployment.send_data deployment ~src:G.s ~res_id:victim.key.res_id
      ~payload_len:1200
  in
  let victim_success n =
    let okc = ref 0 in
    for _ = 1 to n do
      match send_victim () with Ok { delivered = true; _ } -> incr okc | _ -> ()
    done;
    float_of_int !okc /. float_of_int n
  in

  (* --- Attack 1: best-effort flood (link-level isolation) --- *)
  Fmt.pr "[1] Best-effort botnet floods the X1→Y1 link at 3x capacity.@.";
  let engine = Deployment.engine deployment in
  let link =
    Net.Link.create ~engine ~capacity:(gbps 40.) ~scheduler:Net.Link.Strict_priority
      ~deliver:(fun _ -> ())
      ()
  in
  let flood =
    Net.Source.create ~engine ~rate:(gbps 120.) ~packet_bytes:125_000
      ~emit:(fun bytes -> Net.Link.send link ~bytes ~cls:Net.Traffic_class.Best_effort ())
  in
  let reserved =
    Net.Source.create ~engine ~rate:(mbps 100.) ~packet_bytes:125_000
      ~emit:(fun bytes -> Net.Link.send link ~bytes ~cls:Net.Traffic_class.Colibri_data ())
  in
  Net.Source.start flood;
  Net.Source.start reserved;
  Net.Engine.run engine ~until:(Net.Engine.now engine +. 1.0);
  Net.Source.stop flood;
  Net.Source.stop reserved;
  let col = Net.Link.counters link Net.Traffic_class.Colibri_data in
  let be = Net.Link.counters link Net.Traffic_class.Best_effort in
  Fmt.pr "    Colibri class delivered %.1f Mbps of 100 offered; best effort lost %d%%.@."
    (8. *. float_of_int col.delivered_bytes /. 1e6)
    (100 * be.dropped_bytes / max 1 be.offered_bytes);
  Fmt.pr "    -> priority queuing isolates reservations from best-effort congestion.@.@.";

  (* --- Attack 2: bogus Colibri packets --- *)
  Fmt.pr "[2] Off-path adversary injects 10,000 forged Colibri packets.@.";
  let router = Deployment.router deployment G.x1 in
  let gw = Deployment.gateway deployment G.s in
  ignore (Result.get_ok (Gateway.send_bytes gw ~res_id:victim.key.res_id ~payload_len:0));
  let victim_pkt =
    Result.get_ok (Packet.of_bytes (Bytes.sub (Gateway.out gw) 0 (Gateway.out_len gw)))
  in
  let rejected = ref 0 in
  for i = 1 to 10_000 do
    (* Fresh timestamps (just after the captured one) with random
       authenticators: only the HVF check can catch these. *)
    let forged =
      {
        victim_pkt with
        Packet.ts = Timebase.Ts.of_int (Timebase.Ts.to_int victim_pkt.Packet.ts - i);
        hvfs = Array.map (fun _ -> Bytes.make 4 (Char.chr (i land 0xff))) victim_pkt.Packet.hvfs;
      }
    in
    match Router.process_bytes router ~raw:(Packet.to_bytes forged) ~payload_len:0 with
    | Error Router.Invalid_hvf -> incr rejected
    | _ -> ()
  done;
  Fmt.pr "    %d/10000 forged packets dropped by the stateless HVF check.@." !rejected;
  Fmt.pr "    Victim still delivers: %.0f%% of its packets.@.@."
    (100. *. victim_success 50);

  (* --- Attack 3: a neighbor AS overuses its reservation --- *)
  Fmt.pr "[3] AS T overuses its own 1 Mbps reservation 20-fold (rogue gateway).@.";
  let up_t = List.hd (Segments.Db.up_segments db ~src:G.t) in
  let _ =
    ok
      (Deployment.setup_segr deployment ~path:up_t.Segments.path ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 1.))
  in
  let route = List.hd (Deployment.lookup_eer_routes deployment ~src:G.t ~dst:G.y2) in
  let attacker, version, sigmas =
    ok
      (Deployment.setup_eer_full deployment ~route ~src_host:(Ids.host 66)
         ~dst_host:(Ids.host 2) ~bw:(mbps 1.))
  in
  let rogue = Gateway.create ~burst:1e9 ~clock:(Deployment.clock deployment) G.t in
  ok (Gateway.register rogue ~eer:attacker ~version ~sigmas);
  let transit_as = (List.nth attacker.path 1).Path.asn in
  let transit = Deployment.router deployment transit_as in
  let forwarded = ref 0 and policed = ref 0 in
  for _ = 1 to 4000 do
    Deployment.advance deployment 0.00025;
    match Gateway.send_bytes rogue ~res_id:attacker.key.res_id ~payload_len:1200 with
    | Ok _ -> (
        let raw = Bytes.sub (Gateway.out rogue) 0 (Gateway.out_len rogue) in
        match Router.process_bytes transit ~raw ~payload_len:1200 with
        | Ok _ -> incr forwarded
        | Error Router.Policed -> incr policed
        | Error _ -> ())
    | Error _ -> ()
  done;
  let st = Router.stats transit in
  Fmt.pr "    OFD flagged the flow (%d suspects); policing dropped %d of %d packets.@."
    st.suspects_flagged !policed (!forwarded + !policed);
  Fmt.pr "    Overuse confirmed %d time(s); %a reported to the CServ.@."
    st.confirmed_overuse Ids.pp_asn G.t;
  (* The punished AS is now denied new reservations at that transit. *)
  (match
     Deployment.setup_segr deployment ~path:up_t.Segments.path ~kind:Reservation.Up
       ~max_bw:(mbps 10.) ~min_bw:(mbps 1.)
   with
  | Error msg -> Fmt.pr "    New reservation attempt by %a: DENIED (%s).@." Ids.pp_asn G.t msg
  | Ok _ -> Fmt.pr "    (transit AS had not yet confirmed abuse — no denial)@.");
  Fmt.pr "    Victim throughout the attack: %.0f%% delivered.@.@."
    (100. *. victim_success 50);
  if !rejected < 10_000 || !policed = 0 then begin
    Fmt.pr "FAILED: %d/10000 forgeries dropped, %d packets policed.@." !rejected !policed;
    exit 1
  end;
  Fmt.pr "All three §5.1 attack classes neutralized.@."
