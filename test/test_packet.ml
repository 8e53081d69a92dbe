(** Tests for the Colibri packet format (Eq. (2)) and the hop
    authentication primitives (Eqs. (3)–(6)). *)

open Colibri_types
open Colibri

let asn = Ids.asn

let sample_path : Path.t =
  [
    Path.hop ~asn:(asn ~isd:1 ~num:11) ~ingress:0 ~egress:1;
    Path.hop ~asn:(asn ~isd:1 ~num:5) ~ingress:11 ~egress:1;
    Path.hop ~asn:(asn ~isd:1 ~num:1) ~ingress:11 ~egress:3;
    Path.hop ~asn:(asn ~isd:2 ~num:1) ~ingress:4 ~egress:11;
    Path.hop ~asn:(asn ~isd:2 ~num:11) ~ingress:1 ~egress:0;
  ]

let res_info : Packet.res_info =
  {
    src_as = asn ~isd:1 ~num:11;
    res_id = 42;
    bw = Bandwidth.of_mbps 250.;
    exp_time = 316.5;
    version = 3;
  }

let eer_info : Packet.eer_info = { src_host = Ids.host 7; dst_host = Ids.host 99 }

let mk_packet ?(kind = Packet.Eer) ?(payload_len = 1000) () : Packet.t =
  {
    kind;
    path = sample_path;
    res_info;
    eer_info = (match kind with Packet.Eer -> Some eer_info | Packet.Seg -> None);
    ts = Timebase.Ts.of_int 1_234_567;
    hvfs = Array.init 5 (fun i -> Bytes.make Packet.hvf_len (Char.chr (i + 65)));
    payload_len;
  }

let resinfo_roundtrip () =
  let b = Packet.res_info_to_bytes res_info in
  Alcotest.(check int) "32 bytes" Packet.res_info_len (Bytes.length b);
  let r = Packet.res_info_of_bytes b ~off:0 in
  Alcotest.(check bool) "src" true (Ids.equal_asn r.src_as res_info.src_as);
  Alcotest.(check int) "res id" res_info.res_id r.res_id;
  Alcotest.(check (float 1.)) "bw" (Bandwidth.to_bps res_info.bw) (Bandwidth.to_bps r.bw);
  Alcotest.(check (float 1e-5)) "exp" res_info.exp_time r.exp_time;
  Alcotest.(check int) "version" res_info.version r.version

let packet_roundtrip () =
  let p = mk_packet () in
  let raw = Packet.to_bytes p in
  match Packet.of_bytes raw with
  | Error e -> Alcotest.failf "parse error: %a" Packet.pp_parse_error e
  | Ok q ->
      Alcotest.(check bool) "kind" true (q.kind = Packet.Eer);
      Alcotest.(check bool) "path" true (Path.equal p.path q.path);
      Alcotest.(check int) "ts" (Timebase.Ts.to_int p.ts) (Timebase.Ts.to_int q.ts);
      Alcotest.(check int) "payload len" p.payload_len q.payload_len;
      Alcotest.(check int) "hvf count" 5 (Array.length q.hvfs);
      Array.iteri
        (fun i v ->
          Alcotest.(check string) (Printf.sprintf "hvf %d" i)
            (Bytes.to_string p.hvfs.(i))
            (Bytes.to_string v))
        q.hvfs;
      Alcotest.(check bool) "eer_info" true (q.eer_info = Some eer_info)

let seg_packet_roundtrip () =
  let p = mk_packet ~kind:Packet.Seg () in
  match Packet.of_bytes (Packet.to_bytes p) with
  | Ok q ->
      Alcotest.(check bool) "kind seg" true (q.kind = Packet.Seg);
      Alcotest.(check bool) "no eer info" true (q.eer_info = None)
  | Error e -> Alcotest.failf "parse error: %a" Packet.pp_parse_error e

let parse_errors () =
  let p = mk_packet () in
  let raw = Packet.to_bytes p in
  Alcotest.(check bool) "truncated" true
    (Packet.of_bytes (Bytes.sub raw 0 10) = Error Packet.Truncated);
  let bad_magic = Bytes.copy raw in
  Bytes.set_uint16_be bad_magic 0 0xdead;
  Alcotest.(check bool) "bad magic" true (Packet.of_bytes bad_magic = Error Packet.Bad_magic);
  let bad_kind = Bytes.copy raw in
  Bytes.set_uint8 bad_kind 2 7;
  Alcotest.(check bool) "bad kind" true (Packet.of_bytes bad_kind = Error Packet.Bad_kind);
  let zero_hops = Bytes.copy raw in
  Bytes.set_uint8 zero_hops 3 0;
  Alcotest.(check bool) "zero hops" true
    (Packet.of_bytes zero_hops = Error Packet.Bad_hop_count);
  (* Corrupting the first hop's ingress to non-zero invalidates the path. *)
  let bad_path = Bytes.copy raw in
  Bytes.set_int32_be bad_path (Packet.fixed_header_len + 8) 9l;
  (match Packet.of_bytes bad_path with
  | Error (Packet.Bad_path _) -> ()
  | _ -> Alcotest.fail "expected Bad_path")

let wire_size_accounts_header () =
  let p = mk_packet ~payload_len:0 () in
  Alcotest.(check int) "header only" (Bytes.length (Packet.to_bytes p)) (Packet.wire_size p);
  let q = mk_packet ~payload_len:1500 () in
  Alcotest.(check int) "with payload" (Packet.wire_size p + 1500) (Packet.wire_size q)

(* ---------- HVF primitives ---------- *)

let secret = Hvf.as_secret_of_material (Bytes.make 16 'K')
let other_secret = Hvf.as_secret_of_material (Bytes.make 16 'L')

let seg_token_properties () =
  let hop = List.nth sample_path 2 in
  let t1 = Hvf.seg_token secret ~res_info ~hop in
  Alcotest.(check int) "ℓ_hvf" Packet.hvf_len (Bytes.length t1);
  Alcotest.(check bool) "deterministic" true
    (Bytes.equal t1 (Hvf.seg_token secret ~res_info ~hop));
  Alcotest.(check bool) "key sensitivity" false
    (Bytes.equal t1 (Hvf.seg_token other_secret ~res_info ~hop));
  Alcotest.(check bool) "bw sensitivity" false
    (Bytes.equal t1
       (Hvf.seg_token secret ~res_info:{ res_info with bw = Bandwidth.of_mbps 251. } ~hop));
  Alcotest.(check bool) "version sensitivity" false
    (Bytes.equal t1 (Hvf.seg_token secret ~res_info:{ res_info with version = 4 } ~hop));
  Alcotest.(check bool) "iface sensitivity" false
    (Bytes.equal t1 (Hvf.seg_token secret ~res_info ~hop:{ hop with egress = 5 }))

let hop_auth_properties () =
  let hop = List.nth sample_path 1 in
  let s1 = Hvf.hop_auth secret ~res_info ~eer_info ~hop in
  Alcotest.(check int) "full MAC" 16 (Bytes.length s1);
  Alcotest.(check bool) "host sensitivity" false
    (Bytes.equal s1
       (Hvf.hop_auth secret ~res_info
          ~eer_info:{ eer_info with dst_host = Ids.host 100 }
          ~hop));
  Alcotest.(check bool) "resid sensitivity" false
    (Bytes.equal s1 (Hvf.hop_auth secret ~res_info:{ res_info with res_id = 43 } ~eer_info ~hop))

let eer_hvf_properties () =
  let hop = List.nth sample_path 0 in
  let sigma = Hvf.sigma_of_bytes (Hvf.hop_auth secret ~res_info ~eer_info ~hop) in
  let ts = Timebase.Ts.of_int 500 in
  let v = Hvf.eer_hvf sigma ~ts ~pkt_size:1200 in
  Alcotest.(check int) "ℓ_hvf" Packet.hvf_len (Bytes.length v);
  Alcotest.(check bool) "ts sensitivity" false
    (Bytes.equal v (Hvf.eer_hvf sigma ~ts:(Timebase.Ts.of_int 501) ~pkt_size:1200));
  Alcotest.(check bool) "size sensitivity" false
    (Bytes.equal v (Hvf.eer_hvf sigma ~ts ~pkt_size:1201));
  Alcotest.(check bool) "equal_hvf_at" true
    (Hvf.equal_hvf_at v ~a_off:0 (Bytes.copy v) ~b_off:0);
  Alcotest.(check bool) "equal_hvf_at length check" false
    (Hvf.equal_hvf_at v ~a_off:0 (Bytes.make 3 'x') ~b_off:0)

let sigma_seal_open () =
  let aead = Crypto.Aead.of_secret (Bytes.make 16 'd') in
  let rkey : Ids.res_key = { src_as = asn ~isd:1 ~num:11; res_id = 42 } in
  let sigma = Bytes.make 16 's' in
  let sealed = Hvf.seal_sigma ~aead ~res_key:rkey ~version:3 sigma in
  (match Hvf.open_sigma ~aead ~res_key:rkey ~version:3 sealed with
  | Some s -> Alcotest.(check bool) "roundtrip" true (Bytes.equal s sigma)
  | None -> Alcotest.fail "open failed");
  (* Binding to the reservation: wrong key or version fails. *)
  Alcotest.(check bool) "wrong res id" true
    (Hvf.open_sigma ~aead ~res_key:{ rkey with res_id = 43 } ~version:3 sealed = None);
  Alcotest.(check bool) "wrong version" true
    (Hvf.open_sigma ~aead ~res_key:rkey ~version:4 sealed = None)

(* ---------- Properties ---------- *)

let packet_gen =
  QCheck2.Gen.(
    let* hops = 1 -- 16 in
    let* res_id = 1 -- 1_000_000 in
    let* payload_len = 0 -- 9000 in
    let* ts = 0 -- 16_000_000 in
    let* version = 1 -- 100 in
    let* kind = oneofl [ Packet.Seg; Packet.Eer ] in
    let path =
      List.init hops (fun i ->
          Path.hop ~asn:(asn ~isd:1 ~num:(i + 1))
            ~ingress:(if i = 0 then 0 else 1)
            ~egress:(if i = hops - 1 then 0 else 2))
    in
    return
      {
        Packet.kind;
        path;
        res_info = { res_info with res_id; version };
        eer_info = (match kind with Packet.Eer -> Some eer_info | Packet.Seg -> None);
        ts = Timebase.Ts.of_int ts;
        hvfs = Array.init hops (fun i -> Bytes.make Packet.hvf_len (Char.chr (i mod 256)));
        payload_len;
      })

let prop_packet_roundtrip =
  QCheck2.Test.make ~name:"packet: bytes roundtrip" ~count:200 packet_gen (fun p ->
      match Packet.of_bytes (Packet.to_bytes p) with
      | Error _ -> false
      | Ok q ->
          q.kind = p.kind
          && Path.equal q.path p.path
          && q.res_info.res_id = p.res_info.res_id
          && q.res_info.version = p.res_info.version
          && Timebase.Ts.to_int q.ts = Timebase.Ts.to_int p.ts
          && q.payload_len = p.payload_len
          && Array.for_all2 Bytes.equal q.hvfs p.hvfs)

let prop_header_flip_breaks_hvf =
  (* Flipping any byte of ResInfo/EERInfo/hop interfaces used in Eq. (4)
     changes the recomputed σ — the router would reject. *)
  let gen = QCheck2.Gen.(0 -- (Packet.res_info_len - 1)) in
  QCheck2.Test.make ~name:"hvf: any ResInfo bit flip breaks the MAC" ~count:64 gen
    (fun byte_idx ->
      let hop = List.nth sample_path 1 in
      let base = Hvf.hop_auth secret ~res_info ~eer_info ~hop in
      let ri = Packet.res_info_to_bytes res_info in
      Bytes.set ri byte_idx (Char.chr (Char.code (Bytes.get ri byte_idx) lxor 0x01));
      let tampered = Packet.res_info_of_bytes ri ~off:0 in
      (* Some flips may round-trip to the same value through float
         encoding; only count flips that changed the record. *)
      let changed = Packet.res_info_to_bytes tampered <> Packet.res_info_to_bytes res_info in
      (not changed)
      || not (Bytes.equal base (Hvf.hop_auth secret ~res_info:tampered ~eer_info ~hop)))

let suite =
  [
    Alcotest.test_case "ResInfo roundtrip" `Quick resinfo_roundtrip;
    Alcotest.test_case "EER packet roundtrip" `Quick packet_roundtrip;
    Alcotest.test_case "SegR packet roundtrip" `Quick seg_packet_roundtrip;
    Alcotest.test_case "parse errors" `Quick parse_errors;
    Alcotest.test_case "wire size" `Quick wire_size_accounts_header;
    Alcotest.test_case "SegR token (Eq. 3)" `Quick seg_token_properties;
    Alcotest.test_case "hop authenticator (Eq. 4)" `Quick hop_auth_properties;
    Alcotest.test_case "per-packet HVF (Eq. 6)" `Quick eer_hvf_properties;
    Alcotest.test_case "sigma AEAD transport (Eq. 5)" `Quick sigma_seal_open;
    QCheck_alcotest.to_alcotest prop_packet_roundtrip;
    QCheck_alcotest.to_alcotest prop_header_flip_breaks_hvf;
  ]
