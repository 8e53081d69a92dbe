(** [colibri-demo] — a cmdliner CLI driving a full simulated Colibri
    deployment, for exploring the system from a shell.

    {v
    colibri-demo topology [--isds N --cores N --leaves N --seed N]
    colibri-demo segments --src ISD-AS --dst ISD-AS
    colibri-demo reserve  --src ISD-AS --dst ISD-AS --bw MBPS [--packets N]
    colibri-demo attack   [--overuse-factor F]
    v} *)

open Colibri_types
open Colibri_topology
open Colibri

let mbps = Bandwidth.of_mbps
let gbps = Bandwidth.of_gbps

(* ---- shared argument parsing ---- *)

let asn_conv =
  let parse s =
    match String.split_on_char '-' s with
    | [ isd; num ] -> (
        match (int_of_string_opt isd, int_of_string_opt num) with
        | Some isd, Some num -> Ok (Ids.asn ~isd ~num)
        | _ -> Error (`Msg (Printf.sprintf "bad AS id %S (expected ISD-AS, e.g. 1-11)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad AS id %S (expected ISD-AS, e.g. 1-11)" s))
  in
  let print ppf a = Ids.pp_asn ppf a in
  Cmdliner.Arg.conv (parse, print)

open Cmdliner

let isds_arg =
  Arg.(value & opt int 2 & info [ "isds" ] ~docv:"N" ~doc:"Number of ISDs.")

let cores_arg =
  Arg.(value & opt int 2 & info [ "cores" ] ~docv:"N" ~doc:"Core ASes per ISD.")

let leaves_arg =
  Arg.(value & opt int 3 & info [ "leaves" ] ~docv:"N" ~doc:"Leaf ASes per ISD.")

let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")

let make_topo isds cores leaves seed =
  Topology_gen.random ~rng:(Random.State.make [| seed |]) ~isds ~cores ~leaves

(* ---- topology ---- *)

let topology_cmd =
  let run isds cores leaves seed =
    let topo = make_topo isds cores leaves seed in
    Fmt.pr "%a@." Topology.pp topo;
    let db = Segments.discover topo in
    Fmt.pr "@.%d path segments discovered by beaconing.@." (Segments.Db.size db)
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Generate and print a random two-tier topology.")
    Term.(const run $ isds_arg $ cores_arg $ leaves_arg $ seed_arg)

(* ---- segments ---- *)

let src_arg =
  Arg.(required & opt (some asn_conv) None & info [ "src" ] ~docv:"ISD-AS" ~doc:"Source AS.")

let dst_arg =
  Arg.(required & opt (some asn_conv) None & info [ "dst" ] ~docv:"ISD-AS" ~doc:"Destination AS.")

let segments_cmd =
  let run isds cores leaves seed src dst =
    let topo = make_topo isds cores leaves seed in
    if not (Topology.mem topo src && Topology.mem topo dst) then begin
      Fmt.epr "unknown AS (use `colibri-demo topology` to list them)@.";
      exit 1
    end;
    let db = Segments.discover topo in
    let combos = Segments.Db.combinations db ~src ~dst in
    Fmt.pr "%d segment combinations from %a to %a:@." (List.length combos)
      Ids.pp_asn src Ids.pp_asn dst;
    List.iteri
      (fun i combo ->
        Fmt.pr "%2d. %a@." (i + 1)
          Fmt.(list ~sep:(any " + ") Segments.pp)
          combo)
      combos
  in
  Cmd.v
    (Cmd.info "segments" ~doc:"Show path-segment combinations between two ASes.")
    Term.(const run $ isds_arg $ cores_arg $ leaves_arg $ seed_arg $ src_arg $ dst_arg)

(* ---- reserve: full control-plane + data-plane walk ---- *)

let bw_arg =
  Arg.(value & opt float 100. & info [ "bw" ] ~docv:"MBPS" ~doc:"EER bandwidth in Mbps.")

let packets_arg =
  Arg.(value & opt int 50 & info [ "packets" ] ~docv:"N" ~doc:"Data packets to send.")

(* Establish the SegRs needed for src→dst and return the deployment. *)
let provision deployment ~src ~dst =
  let db = Deployment.seg_db deployment in
  let topo = Deployment.topology deployment in
  let try_seg kind path =
    match
      Deployment.setup_segr deployment ~path ~kind ~max_bw:(gbps 2.) ~min_bw:(mbps 1.)
    with
    | Ok segr ->
        Fmt.pr "  SegR %a (%a) %a@." Ids.pp_res_key segr.key Reservation.pp_seg_kind
          kind Path.pp segr.path;
        true
    | Error e ->
        Fmt.pr "  SegR setup failed (%s)@." e;
        false
  in
  (* Ups from src. *)
  if not (Topology.is_core topo src) then
    Segments.Db.up_segments db ~src
    |> List.iteri (fun i (s : Segments.t) ->
           if i < 2 then ignore (try_seg Reservation.Up s.path));
  (* Downs to dst. *)
  if not (Topology.is_core topo dst) then
    Segments.Db.down_segments db ~dst
    |> List.iteri (fun i (s : Segments.t) ->
           if i < 2 then
             ignore
               (Deployment.request_down_segr deployment ~path:s.path
                  ~max_bw:(gbps 2.) ~min_bw:(mbps 1.)
                |> Result.map (fun (segr : Reservation.segr) ->
                       Fmt.pr "  SegR %a (down) %a@." Ids.pp_res_key segr.key Path.pp
                         segr.path)));
  (* Cores between every up-end and down-start (or the endpoints if
     they are core ASes themselves). *)
  let ups =
    if Topology.is_core topo src then [ src ]
    else
      Segments.Db.up_segments db ~src
      |> List.filteri (fun i _ -> i < 2)
      |> List.map Segments.destination
  in
  let downs =
    if Topology.is_core topo dst then [ dst ]
    else
      Segments.Db.down_segments db ~dst
      |> List.filteri (fun i _ -> i < 2)
      |> List.map Segments.source
  in
  List.iter
    (fun u ->
      List.iter
        (fun d ->
          if not (Ids.equal_asn u d) then
            Segments.Db.core_segments db ~src:u ~dst:d
            |> List.iteri (fun i (s : Segments.t) ->
                   if i < 1 then ignore (try_seg Reservation.Core s.path)))
        downs)
    ups

let reserve_cmd =
  let run isds cores leaves seed src dst bw packets =
    let topo = make_topo isds cores leaves seed in
    if not (Topology.mem topo src && Topology.mem topo dst) then begin
      Fmt.epr "unknown AS@.";
      exit 1
    end;
    let deployment = Deployment.create topo in
    Fmt.pr "Provisioning segment reservations:@.";
    provision deployment ~src ~dst;
    Fmt.pr "@.Requesting a %.0f Mbps EER %a(h1) → %a(h2)...@." bw Ids.pp_asn src
      Ids.pp_asn dst;
    match
      Deployment.setup_eer_auto deployment ~src ~src_host:(Ids.host 1) ~dst
        ~dst_host:(Ids.host 2) ~bw:(mbps bw)
    with
    | Error e ->
        Fmt.pr "EER setup failed: %s@." e;
        exit 1
    | Ok eer ->
        Fmt.pr "EER %a over %d SegR(s):@.  %a@.@." Ids.pp_res_key eer.key
          (List.length eer.segr_keys) Path.pp eer.path;
        let delivered = ref 0 in
        for _ = 1 to packets do
          Deployment.advance deployment 0.001;
          match
            Deployment.send_data deployment ~src ~res_id:eer.key.res_id
              ~payload_len:1000
          with
          | Ok { delivered = true; _ } -> incr delivered
          | Ok { dropped_at = Some (a, r); _ } ->
              Fmt.pr "  drop at %a: %a@." Ids.pp_asn a Router.pp_drop_reason r
          | Ok _ -> ()
          | Error e -> Fmt.pr "  gateway: %a@." Gateway.pp_drop_reason e
        done;
        Fmt.pr "%d/%d packets delivered across %d border routers each.@." !delivered
          packets (Path.length eer.path);
        (* Exit telemetry (DESIGN.md §7): the source gateway's and the
           first transit router's drop accounting for this run. *)
        Fmt.pr "@.Gateway metrics (%a):@.%a@." Ids.pp_asn src Obs.pp_text
          (Obs.Registry.snapshot (Gateway.metrics (Deployment.gateway deployment src)));
        (match eer.path with
        | _ :: (second : Path.hop) :: _ ->
            Fmt.pr "@.Router metrics (%a):@.%a@." Ids.pp_asn second.asn Obs.pp_text
              (Obs.Registry.snapshot
                 (Router.metrics (Deployment.router deployment second.asn)))
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "reserve"
       ~doc:"Set up SegRs and an EER between two ASes, then send data over it.")
    Term.(
      const run $ isds_arg $ cores_arg $ leaves_arg $ seed_arg $ src_arg $ dst_arg
      $ bw_arg $ packets_arg)

(* ---- attack: §5 scenarios in one shot ---- *)

let factor_arg =
  Arg.(
    value & opt float 20.
    & info [ "overuse-factor" ] ~docv:"F" ~doc:"Overuse multiple for the rogue AS.")

let attack_cmd =
  let run factor =
    let module G = Topology_gen.Two_isd in
    let deployment = Deployment.create (Topology_gen.two_isd ()) in
    let db = Deployment.seg_db deployment in
    let up = List.hd (Segments.Db.up_segments db ~src:G.t) in
    (match
       Deployment.setup_segr deployment ~path:up.Segments.path ~kind:Reservation.Up
         ~max_bw:(gbps 1.) ~min_bw:(mbps 1.)
     with
    | Ok _ -> ()
    | Error e -> failwith e);
    let route = List.hd (Deployment.lookup_eer_routes deployment ~src:G.t ~dst:G.y2) in
    let eer, version, sigmas =
      match
        Deployment.setup_eer_full deployment ~route ~src_host:(Ids.host 66)
          ~dst_host:(Ids.host 2) ~bw:(mbps 1.)
      with
      | Ok v -> v
      | Error e -> failwith e
    in
    let rogue = Gateway.create ~burst:1e9 ~clock:(Deployment.clock deployment) G.t in
    (match Gateway.register rogue ~eer ~version ~sigmas with
    | Ok () -> ()
    | Error e -> failwith e);
    let transit = Deployment.router deployment (List.nth eer.path 1).Path.asn in
    Fmt.pr "Rogue AS %a overuses its 1 Mbps EER %.0f-fold...@." Ids.pp_asn G.t factor;
    let n = int_of_float (factor *. 200.) in
    let forwarded = ref 0 and policed = ref 0 in
    for _ = 1 to n do
      Deployment.advance deployment (1. /. factor /. 200.);
      match Gateway.send_bytes rogue ~res_id:eer.key.res_id ~payload_len:600 with
      | Ok _ -> (
          let raw = Bytes.sub (Gateway.out rogue) 0 (Gateway.out_len rogue) in
          match Router.process_bytes transit ~raw ~payload_len:600 with
          | Ok _ -> incr forwarded
          | Error Router.Policed -> incr policed
          | Error _ -> ())
      | Error _ -> ()
    done;
    let st = Router.stats transit in
    Fmt.pr "Transit router: %d forwarded, %d policed, %d suspect flag(s), %d confirmation(s).@."
      !forwarded !policed st.suspects_flagged st.confirmed_overuse;
    if st.confirmed_overuse > 0 then
      Fmt.pr "Future reservations from %a are now denied at the transit AS.@."
        Ids.pp_asn G.t;
    (* Exit telemetry (DESIGN.md §7): the rogue gateway never drops (its
       bucket is sabotaged); the transit router's counters carry the
       policing story told above. *)
    Fmt.pr "@.Rogue gateway metrics:@.%a@." Obs.pp_text
      (Obs.Registry.snapshot (Gateway.metrics rogue));
    Fmt.pr "@.Transit router metrics:@.%a@." Obs.pp_text
      (Obs.Registry.snapshot (Router.metrics transit))
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run the reservation-overuse attack and watch policing.")
    Term.(const run $ factor_arg)

let () =
  let doc = "Drive a simulated Colibri deployment from the command line." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "colibri-demo" ~doc)
          [ topology_cmd; segments_cmd; reserve_cmd; attack_cmd ]))
