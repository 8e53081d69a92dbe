(** Golden pin of the SegR/EER setup walk. Renders every setup outcome
    (key, version, final bandwidth, expiry, SegR tokens and σ bytes, or
    the error string) plus every AS's CServ metrics and the network
    registry for a fixed set of instantaneous and networked workloads,
    and compares the MD5 of the rendering with a recorded constant. A
    change to the walk that alters any grant, token, σ, refusal, or
    admission counter fails here. On a mismatch the rendering is
    written to [setup_golden.actual] and the first line that differs
    from [setup_golden.expected] is printed. *)

open Colibri_types
open Colibri_topology
open Colibri

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps
let hex = Crypto.Hex.of_bytes

let pp_version ppf (v : Reservation.version) =
  Fmt.pf ppf "v%d bw=%.0f exp=%.6f" v.version (Bandwidth.to_bps v.bw) v.exp_time

let render_eer buf (e : Reservation.eer) =
  Printf.bprintf buf " eer %s [%s]" (Fmt.str "%a" Ids.pp_res_key e.key)
    (String.concat "; " (List.map (Fmt.str "%a" pp_version) e.versions))

let render_segr buf d key =
  match Cserv.own_segr (Deployment.cserv d key.Ids.src_as) key with
  | None -> Printf.bprintf buf "segr %s missing\n" (Fmt.str "%a" Ids.pp_res_key key)
  | Some (s : Reservation.segr) ->
      let v = Fmt.(str "%a" (option ~none:(any "-") pp_version)) in
      Printf.bprintf buf "segr %s active=%s pending=%s tokens=%s\n"
        (Fmt.str "%a" Ids.pp_res_key key) (v s.active) (v s.pending)
        (String.concat "," (List.map hex s.tokens))

let render_outcome buf label f = function
  | Error e -> Printf.bprintf buf "%s err %s\n" label e
  | Ok x ->
      Printf.bprintf buf "%s ok" label;
      f x;
      Buffer.add_char buf '\n'

let render_metrics buf d =
  Topology.ases (Deployment.topology d)
  |> List.sort Ids.compare_asn
  |> List.iter (fun asn ->
         Printf.bprintf buf "cserv %s %s\n" (Fmt.str "%a" Ids.pp_asn asn)
           (Obs.to_json
              (Obs.Registry.snapshot (Cserv.metrics (Deployment.cserv d asn)))));
  Printf.bprintf buf "audit [%s]\n" (String.concat "; " (Deployment.audit_all d))

(* Instantaneous entry points over the randomized e2e worlds. *)
let render_world buf seed =
  let d, src, dst = Test_e2e_random.build_world seed in
  Printf.bprintf buf "world %d %s -> %s\n" seed (Fmt.str "%a" Ids.pp_asn src)
    (Fmt.str "%a" Ids.pp_asn dst);
  let routes = Deployment.lookup_eer_routes d ~src ~dst in
  List.iter
    (fun (r : Deployment.eer_route) -> List.iter (render_segr buf d) r.segr_keys)
    routes;
  for i = 1 to 12 do
    (* Demands large enough that later requests exhaust the SegRs. *)
    let bw = mbps (float_of_int (40 + (i * 97 mod 360))) in
    render_outcome buf (Printf.sprintf "auto %d" i) (render_eer buf)
      (Deployment.setup_eer_auto d ~src ~src_host:(Ids.host i) ~dst
         ~dst_host:(Ids.host 2) ~bw);
    Deployment.advance d 0.25
  done;
  (match routes with
  | [] -> Printf.bprintf buf "no route\n"
  | route :: _ ->
      let full i ?renew bw =
        let r =
          Deployment.setup_eer_full ?renew d ~route ~src_host:(Ids.host (100 + i))
            ~dst_host:(Ids.host 3) ~bw
        in
        render_outcome buf
          (Printf.sprintf "full %d" i)
          (fun (e, v, sigmas) ->
            render_eer buf e;
            Printf.bprintf buf " got %s sigmas=%s" (Fmt.str "%a" pp_version v)
              (String.concat "," (List.map hex sigmas)))
          r;
        Deployment.advance d 0.5;
        Result.to_option r
      in
      (* A fresh grant, its renewal, a refusal at the destination (the
         whole path releases its tentative state), and a request over
         SegRs that have since expired. *)
      let first = full 1 (mbps 30.) in
      ignore
        (full 2
           ?renew:(Option.map (fun ((e : Reservation.eer), _, _) -> e.key) first)
           (mbps 60.));
      Cserv.report_misbehavior (Deployment.cserv d dst) ~src;
      ignore (full 3 (mbps 2.));
      Deployment.advance d (Reservation.segr_lifetime +. 1.);
      ignore (full 4 (mbps 2.)));
  render_metrics buf d

(* Networked entry points under loss with fixed fault and retry seeds. *)
let render_net buf =
  let n = 4 in
  let d = Deployment.create (Topology_gen.linear ~n ~capacity:(gbps 10.)) in
  let faults = Net.Fault.create ~seed:17 () in
  Net.Fault.set_default faults (Net.Fault.plan ~loss:0.05 ~jitter:0.001 ());
  Deployment.attach_network ~faults ~retry_seed:23 d;
  let path = Topology_gen.linear_path ~n in
  let segr =
    Deployment.setup_segr_sync d ~path ~kind:Reservation.Core ~max_bw:(gbps 1.)
      ~min_bw:(mbps 1.)
  in
  render_outcome buf "net segr"
    (fun (s : Reservation.segr) -> render_segr buf d s.key)
    segr;
  (match segr with
  | Error _ -> ()
  | Ok s ->
      let route : Deployment.eer_route = { path; segr_keys = [ s.key ] } in
      for i = 1 to 24 do
        (* The last requests are refused mid-path, so each deny walk
           crosses lossy links on its way back. *)
        if i = 19 then
          Cserv.report_misbehavior
            (Deployment.cserv d (Ids.asn ~isd:1 ~num:3))
            ~src:(Path.source path);
        let bw = mbps (if i >= 19 then 1. else float_of_int (20 + (i * 61 mod 150))) in
        render_outcome buf (Printf.sprintf "net eer %d" i) (render_eer buf)
          (Deployment.setup_eer_sync d ~route ~src_host:(Ids.host i)
             ~dst_host:(Ids.host 2) ~bw);
        Deployment.advance d 0.5
      done);
  render_metrics buf d;
  Printf.bprintf buf "network %s\n"
    (Obs.to_json (Obs.Registry.snapshot (Deployment.network_metrics d)))

let render () =
  let buf = Buffer.create 65536 in
  List.iter (render_world buf) [ 3; 17; 42; 101; 256; 511; 733; 999 ];
  render_net buf;
  Buffer.contents buf

let expected_md5 = "797b6b3015980770803d3e92c466c5a4"

let first_difference ~expected actual =
  let rec go i = function
    | e :: es, a :: as_ ->
        if String.equal e a then go (i + 1) (es, as_)
        else Printf.sprintf "line %d:\n  expected: %s\n  actual:   %s" i e a
    | e :: _, [] -> Printf.sprintf "line %d: missing, expected: %s" i e
    | [], a :: _ -> Printf.sprintf "line %d: extra: %s" i a
    | [], [] -> "no line differs"
  in
  go 1 (String.split_on_char '\n' expected, String.split_on_char '\n' actual)

let test_golden () =
  let actual = render () in
  let md5 = Digest.to_hex (Digest.string actual) in
  if not (String.equal md5 expected_md5) then begin
    Out_channel.with_open_bin "setup_golden.actual" (fun oc ->
        Out_channel.output_string oc actual);
    let diff =
      match In_channel.with_open_bin "setup_golden.expected" In_channel.input_all with
      | expected -> first_difference ~expected actual
      | exception Sys_error _ -> "setup_golden.expected not found"
    in
    Alcotest.failf "setup golden MD5 %s <> recorded %s; %s" md5 expected_md5 diff
  end

let suite = [ Alcotest.test_case "setup walk golden rendering" `Quick test_golden ]
