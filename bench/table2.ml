(** Table 2 reproduction: data-plane protection at a border router
    with three 40 Gbps input ports and one 40 Gbps output port (§7.1).

    Three measurement phases send different mixtures of best-effort,
    authentic-Colibri, and unauthentic-Colibri traffic, all destined to
    the same output:

    - {b phase 1} — best-effort congestion: BE cross-traffic saturates
      the link; reservations keep their full bandwidth thanks to
      traffic prioritization (Appendix B);
    - {b phase 2} — unauthentic Colibri flood: forged packets are
      dropped by the cryptographic check and never reach the output;
    - {b phase 3} — reservation overuse: reservation 1 sends 40 Gbps
      through its 0.4 Gbps reservation from a rogue gateway; having
      been flagged by the probabilistic monitor, it is policed to its
      guaranteed bandwidth by the deterministic token bucket without
      affecting reservation 2.

    Simulated packets carry ~1 Mbit so that a 40 Gbps port is ~40 kpps
    of events; all rates are exact, only per-packet granularity is
    coarser than the testbed's. *)

open Colibri_types
open Colibri_topology
open Colibri

let gbps = Bandwidth.of_gbps

(* Star topology: router R (core) with leaves S1-S3 (inputs) and D. *)
let r = Ids.asn ~isd:1 ~num:1
let s1 = Ids.asn ~isd:1 ~num:11
let s2 = Ids.asn ~isd:1 ~num:12
let s3 = Ids.asn ~isd:1 ~num:13
let d_as = Ids.asn ~isd:1 ~num:20

let topo () =
  let t = Topology.create () in
  Topology.add_as t ~asn:r ~core:true;
  List.iter (fun a -> Topology.add_as t ~asn:a ~core:false) [ s1; s2; s3; d_as ];
  List.iteri
    (fun i leaf ->
      Topology.connect t ~a:r ~a_iface:(i + 1) ~b:leaf ~b_iface:1
        ~capacity:(gbps 40.) ~kind:Topology.Parent_child)
    [ s1; s2; s3; d_as ];
  t

type colibri_tag = Res1 | Res2 | Unauth

type pkt =
  | Colibri of { raw : bytes; payload_len : int; tag : colibri_tag }
  | Plain (* best effort *)

type accumulators = {
  mutable res1 : int; (* bytes delivered at D *)
  mutable res2 : int;
  mutable unauth : int;
  mutable best_effort : int;
}

type rates = { r1 : float; r2 : float; un : float; be : float }

(* One simulated phase: wire the sources, run for [duration] simulated
   seconds, return delivered Gbps per class at the destination. *)
type phase_spec = {
  res1_rate : Bandwidth.t; (* offered on reservation 1 (input 1) *)
  res1_rogue : bool; (* bypass the source-AS gateway monitoring *)
  res2_rate : Bandwidth.t; (* offered on reservation 2 (input 2) *)
  be_in2 : Bandwidth.t; (* best effort on input 2 *)
  be_in3 : Bandwidth.t; (* best effort on input 3 *)
  unauth_in3 : Bandwidth.t; (* unauthentic Colibri on input 3 *)
  watch : bool; (* phase 3: reservations under deterministic watch *)
}

let wire_bytes = 125_000 (* 1 Mbit on the wire *)

let run_phase (spec : phase_spec) : rates =
  let topo = topo () in
  let d = Deployment.create topo in
  let engine = Deployment.engine d in
  let acc = { res1 = 0; res2 = 0; unauth = 0; best_effort = 0 } in
  (* Output port R → D. *)
  let out_link =
    Net.Link.create ~engine ~capacity:(gbps 40.) ~delay:0.001
      ~scheduler:Net.Link.Strict_priority
      ~deliver:(fun (p : pkt Net.Link.packet) ->
        match p.payload with
        | Plain -> acc.best_effort <- acc.best_effort + p.bytes
        | Colibri { tag = Res1; _ } -> acc.res1 <- acc.res1 + p.bytes
        | Colibri { tag = Res2; _ } -> acc.res2 <- acc.res2 + p.bytes
        | Colibri { tag = Unauth; _ } -> acc.unauth <- acc.unauth + p.bytes)
      ()
  in
  (* The border router at R. *)
  let router = Deployment.router d r in
  (* Input ports S_i → R. *)
  let in_link _i =
    Net.Link.create ~engine ~capacity:(gbps 40.) ~delay:0.001
      ~scheduler:Net.Link.Strict_priority
      ~deliver:(fun (p : pkt Net.Link.packet) ->
        match p.payload with
        | Plain -> Net.Link.send out_link ~bytes:p.bytes ~cls:Net.Traffic_class.Best_effort Plain
        | Colibri { raw; payload_len; _ } -> (
            match Router.process_bytes router ~raw ~payload_len with
            | Ok _ ->
                Net.Link.send out_link ~bytes:p.bytes ~cls:Net.Traffic_class.Colibri_data
                  p.payload
            | Error _ -> () (* dropped at the router *)))
      ()
  in
  let in1 = in_link 1 and in2 = in_link 2 and in3 = in_link 3 in
  (* Reservations: EERs S1→D (0.4 Gbps) and S2→D (0.8 Gbps), each over
     an up- and a down-SegR through R. *)
  let db = Deployment.seg_db d in
  let setup_res ~src ~bw =
    let up = List.hd (Segments.Db.up_segments db ~src) in
    let _ =
      Result.get_ok
        (Deployment.setup_segr d ~path:up.Segments.path ~kind:Reservation.Up
           ~max_bw:(gbps 2.) ~min_bw:(gbps 0.01))
    in
    let down = List.hd (Segments.Db.down_segments db ~dst:d_as) in
    (* Down-SegRs are requested once; re-requesting from the second
       source AS's rig is fine since the initiator is R either way. *)
    let _ =
      Result.get_ok
        (Deployment.request_down_segr d ~path:down.Segments.path ~max_bw:(gbps 2.)
           ~min_bw:(gbps 0.01))
    in
    let route = List.hd (Deployment.lookup_eer_routes d ~src ~dst:d_as) in
    Result.get_ok
      (Deployment.setup_eer_full d ~route ~src_host:(Ids.host 1)
         ~dst_host:(Ids.host 2) ~bw)
  in
  let eer1, v1, sig1 = setup_res ~src:s1 ~bw:(gbps 0.4) in
  let eer2, _v2, _sig2 = setup_res ~src:s2 ~bw:(gbps 0.8) in
  (* Rogue gateway for phase 3 (res1 overuse): no rate limiting. *)
  let rogue_gw = Gateway.create ~burst:1e9 ~clock:(Deployment.clock d) s1 in
  (match Gateway.register rogue_gw ~eer:eer1 ~version:v1 ~sigmas:sig1 with
  | Ok () -> ()
  | Error e -> failwith e);
  if spec.watch then begin
    Router.watch router ~key:eer1.key ~rate:(gbps 0.4);
    Router.watch router ~key:eer2.key ~rate:(gbps 0.8)
  end;
  let payload_len = wire_bytes - Packet.header_len ~hops:3 in
  (* Traffic sources. *)
  let sources = ref [] in
  let feed link rate mk =
    if Bandwidth.is_positive rate then begin
      let src =
        Net.Source.create ~engine ~rate ~packet_bytes:wire_bytes ~emit:(fun bytes ->
            match mk () with
            | Some payload -> Net.Link.send link ~bytes ~cls:(match payload with
                | Plain -> Net.Traffic_class.Best_effort
                | Colibri _ -> Net.Traffic_class.Colibri_data) payload
            | None -> ())
      in
      Net.Source.start src;
      sources := src :: !sources
    end
  in
  let colibri_emitter gw (eer : Reservation.eer) tag () =
    match Gateway.send_bytes gw ~res_id:eer.key.res_id ~payload_len with
    | Ok _ ->
        let raw = Bytes.sub (Gateway.out gw) 0 (Gateway.out_len gw) in
        Some (Colibri { raw; payload_len; tag })
    | Error _ -> None (* honest gateway drops overuse at the source *)
  in
  feed in1 spec.res1_rate
    (colibri_emitter
       (if spec.res1_rogue then rogue_gw else Deployment.gateway d s1)
       eer1 Res1);
  feed in2 spec.res2_rate (colibri_emitter (Deployment.gateway d s2) eer2 Res2);
  feed in2 spec.be_in2 (fun () -> Some Plain);
  feed in3 spec.be_in3 (fun () -> Some Plain);
  (* Unauthentic Colibri: syntactically valid packets with random HVFs
     claiming a bogus reservation of S3. *)
  let forged_path =
    [
      Path.hop ~asn:s3 ~ingress:0 ~egress:1;
      Path.hop ~asn:r ~ingress:3 ~egress:4;
      Path.hop ~asn:d_as ~ingress:1 ~egress:0;
    ]
  in
  let forge_counter = ref 0 in
  feed in3 spec.unauth_in3 (fun () ->
      incr forge_counter;
      let pkt : Packet.t =
        {
          kind = Packet.Eer;
          path = forged_path;
          res_info =
            {
              src_as = s3;
              res_id = 1;
              bw = gbps 10.;
              exp_time = Net.Engine.now engine +. 10.;
              version = 1;
            };
          eer_info = Some { src_host = Ids.host 66; dst_host = Ids.host 2 };
          ts = Timebase.Ts.of_int !forge_counter;
          hvfs = Array.init 3 (fun _ -> Bytes.make Packet.hvf_len 'f');
          payload_len;
        }
      in
      Some (Colibri { raw = Packet.to_bytes pkt; payload_len; tag = Unauth }));
  (* Warm-up, then measure one second. *)
  let warmup = 0.2 and duration = 1.0 in
  Net.Engine.run engine ~until:(Net.Engine.now engine +. warmup);
  let snap = (acc.res1, acc.res2, acc.unauth, acc.best_effort) in
  Net.Engine.run engine ~until:(Net.Engine.now engine +. duration);
  List.iter Net.Source.stop !sources;
  let r1_0, r2_0, un_0, be_0 = snap in
  let to_gbps bytes = 8. *. float_of_int bytes /. duration /. 1e9 in
  ignore (in1, in2, in3);
  {
    r1 = to_gbps (acc.res1 - r1_0);
    r2 = to_gbps (acc.res2 - r2_0);
    un = to_gbps (acc.unauth - un_0);
    be = to_gbps (acc.best_effort - be_0);
  }

let phases : (string * phase_spec) list =
  [
    ( "phase 1",
      {
        res1_rate = gbps 0.4;
        res1_rogue = false;
        res2_rate = gbps 0.8;
        be_in2 = gbps 39.2;
        be_in3 = gbps 40.0;
        unauth_in3 = Bandwidth.zero;
        watch = false;
      } );
    ( "phase 2",
      {
        res1_rate = gbps 0.4;
        res1_rogue = false;
        res2_rate = gbps 0.8;
        be_in2 = gbps 39.2;
        be_in3 = gbps 20.0;
        unauth_in3 = gbps 20.0;
        watch = false;
      } );
    ( "phase 3",
      {
        res1_rate = gbps 40.0;
        res1_rogue = true;
        res2_rate = gbps 0.8;
        be_in2 = gbps 39.2;
        be_in3 = gbps 20.0;
        unauth_in3 = gbps 20.0;
        watch = true;
      } );
  ]

let inputs_of (s : phase_spec) =
  (* (input1, input2, input3) offered Gbps per traffic class row. *)
  let g = Bandwidth.to_gbps in
  [
    ("Reservation 1", [ g s.res1_rate; 0.; 0. ]);
    ("Reservation 2", [ 0.; g s.res2_rate; 0. ]);
    ("Best effort", [ 0.; g s.be_in2; g s.be_in3 ]);
    ("Colibri unauth.", [ 0.; 0.; g s.unauth_in3 ]);
  ]

let run () =
  Measure.print_header
    "Table 2: data-plane protection (Gbps; 3x40G inputs, one 40G output)";
  Printf.printf "%-8s %-16s %8s %8s %8s | %8s\n" "" "Traffic class" "in 1" "in 2"
    "in 3" "Output";
  List.iter
    (fun (name, spec) ->
      let rates = run_phase spec in
      let outputs =
        [
          ("Reservation 1", rates.r1);
          ("Reservation 2", rates.r2);
          ("Best effort", rates.be);
          ("Colibri unauth.", rates.un);
        ]
      in
      List.iteri
        (fun i (cls, ins) ->
          let label = if i = 0 then name else "" in
          let skip =
            (* hide all-zero rows as the paper's table does *)
            List.for_all (fun x -> x = 0.) ins && List.assoc cls outputs = 0.
          in
          if not skip then begin
            let cell x = if x = 0. then "     --- " else Printf.sprintf "%8.3f " x in
            Printf.printf "%-8s %-16s %s%s%s| %s\n" label cls
              (cell (List.nth ins 0))
              (cell (List.nth ins 1))
              (cell (List.nth ins 2))
              (cell (List.assoc cls outputs))
          end)
        (inputs_of spec);
      print_newline ())
    phases
