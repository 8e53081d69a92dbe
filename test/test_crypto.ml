(** Tests for the crypto substrate: AES-128 against FIPS-197 /
    SP 800-38A vectors, AES-CMAC against RFC 4493, AEAD round-trips and
    tamper detection, a differential check of both AES kernels (AES-NI
    where the CPU has it, and the T-table fallback) against the
    byte-oriented reference in [Aes_ref]/[Cmac_ref]/[Aead_ref],
    allocation pins, plus property-based checks. *)

open Crypto

let check_hex msg expected b = Alcotest.(check string) msg expected (Hex.of_bytes b)

let aes_fips_vector () =
  (* FIPS-197 Appendix C.1 *)
  let key = Hex.to_bytes "000102030405060708090a0b0c0d0e0f" in
  let pt = Hex.to_bytes "00112233445566778899aabbccddeeff" in
  check_hex "FIPS-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a" (Aes.encrypt (Aes.of_secret key) pt)

let aes_sp800_38a_vectors () =
  (* NIST SP 800-38A F.1.1: AES-128 ECB *)
  let k = Aes.of_secret (Hex.to_bytes "2b7e151628aed2a6abf7158809cf4f3c") in
  let cases =
    [
      ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
    ]
  in
  List.iter
    (fun (pt, ct) -> check_hex pt ct (Aes.encrypt k (Hex.to_bytes pt)))
    cases

let aes_bad_key_size () =
  Alcotest.check_raises "15-byte key" (Invalid_argument "Aes.expand: key must be 16 bytes")
    (fun () -> ignore (Aes.of_secret (Bytes.make 15 'x')))

let aes_in_place () =
  (* encrypt_block must allow src == dst *)
  let k = Aes.of_secret (Hex.to_bytes "000102030405060708090a0b0c0d0e0f") in
  let b = Hex.to_bytes "00112233445566778899aabbccddeeff" in
  Aes.encrypt_block k ~src:b ~src_off:0 ~dst:b ~dst_off:0;
  check_hex "in place" "69c4e0d86a7b0430d8cdb78070b4c55a" b

let cmac_rfc4493_vectors () =
  let k = Cmac.of_secret (Hex.to_bytes "2b7e151628aed2a6abf7158809cf4f3c") in
  let m =
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
  in
  let digest hex = Hex.of_bytes (Cmac.digest k (Hex.to_bytes hex)) in
  Alcotest.(check string) "empty" "bb1d6929e95937287fa37d129b756746" (digest "");
  Alcotest.(check string) "16B" "070a16b46b4d4144f79bdd9dd04a287c"
    (digest (String.sub m 0 32));
  Alcotest.(check string) "40B" "dfa66747de9ae63030ca32611497c827"
    (digest (String.sub m 0 80));
  Alcotest.(check string) "64B" "51f0bebf7e3b9d92fc49741779363cfe" (digest m)

let cmac_truncation () =
  let k = Cmac.of_secret (Bytes.make 16 'k') in
  let m = Bytes.of_string "colibri" in
  let full = Cmac.digest k m in
  let t4 = Cmac.digest_trunc k m ~len:4 in
  Alcotest.(check int) "length" 4 (Bytes.length t4);
  Alcotest.(check string) "prefix" (Bytes.to_string (Bytes.sub full 0 4)) (Bytes.to_string t4);
  Alcotest.check_raises "len 0" (Invalid_argument "Cmac.digest_trunc: len must be in 1..16")
    (fun () -> ignore (Cmac.digest_trunc k m ~len:0));
  Alcotest.check_raises "len 17" (Invalid_argument "Cmac.digest_trunc: len must be in 1..16")
    (fun () -> ignore (Cmac.digest_trunc k m ~len:17))

let cmac_verify () =
  let k = Cmac.of_secret (Bytes.make 16 'k') in
  let m = Bytes.of_string "message" in
  let tag = Cmac.digest k m in
  Alcotest.(check bool) "valid" true (Cmac.verify k m ~tag);
  Alcotest.(check bool) "valid truncated" true
    (Cmac.verify k m ~tag:(Bytes.sub tag 0 4));
  let bad = Bytes.copy tag in
  Bytes.set bad 3 (Char.chr (Char.code (Bytes.get bad 3) lxor 1));
  Alcotest.(check bool) "tampered" false (Cmac.verify k m ~tag:bad);
  Alcotest.(check bool) "wrong message" false
    (Cmac.verify k (Bytes.of_string "messagf") ~tag);
  Alcotest.(check bool) "empty tag" false (Cmac.verify k m ~tag:Bytes.empty)

let cmac_copy () =
  let k = Cmac.of_secret (Bytes.make 16 'k') in
  let m = Bytes.of_string "message" in
  let tag = Bytes.to_string (Cmac.digest k m) in
  let c = Cmac.copy k in
  Alcotest.(check string) "copy computes the same tag" tag
    (Bytes.to_string (Cmac.digest c m));
  Cmac.rekey c (Bytes.make 16 'z') ~off:0;
  Alcotest.(check string) "rekeying the copy leaves the original" tag
    (Bytes.to_string (Cmac.digest k m))

let aead_roundtrip () =
  let k = Aead.of_secret (Bytes.make 16 's') in
  let nonce = Bytes.make 16 'n' and ad = Bytes.of_string "header" in
  let plain = Bytes.of_string "the hop authenticator sigma" in
  let sealed = Aead.seal k ~nonce ~ad plain in
  Alcotest.(check int) "overhead" (Bytes.length plain + Aead.tag_size) (Bytes.length sealed);
  match Aead.open_ k ~nonce ~ad sealed with
  | Some p -> Alcotest.(check string) "plaintext" (Bytes.to_string plain) (Bytes.to_string p)
  | None -> Alcotest.fail "open_ failed on valid input"

let aead_rejects_tampering () =
  let k = Aead.of_secret (Bytes.make 16 's') in
  let nonce = Bytes.make 16 'n' and ad = Bytes.of_string "header" in
  let sealed = Aead.seal k ~nonce ~ad (Bytes.of_string "secret") in
  let flip i b =
    let c = Bytes.copy b in
    Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor 0x80));
    c
  in
  Alcotest.(check bool) "ciphertext bit" true (Aead.open_ k ~nonce ~ad (flip 0 sealed) = None);
  Alcotest.(check bool) "tag bit" true
    (Aead.open_ k ~nonce ~ad (flip (Bytes.length sealed - 1) sealed) = None);
  Alcotest.(check bool) "wrong ad" true
    (Aead.open_ k ~nonce ~ad:(Bytes.of_string "other") sealed = None);
  Alcotest.(check bool) "wrong nonce" true
    (Aead.open_ k ~nonce:(Bytes.make 16 'm') ~ad sealed = None);
  Alcotest.(check bool) "wrong key" true
    (Aead.open_ (Aead.of_secret (Bytes.make 16 't')) ~nonce ~ad sealed = None);
  Alcotest.(check bool) "too short" true
    (Aead.open_ k ~nonce ~ad (Bytes.make 8 'x') = None)

let aead_empty_plaintext () =
  let k = Aead.of_secret (Bytes.make 16 's') in
  let nonce = Bytes.make 16 'n' in
  let sealed = Aead.seal k ~nonce ~ad:Bytes.empty Bytes.empty in
  match Aead.open_ k ~nonce ~ad:Bytes.empty sealed with
  | Some p -> Alcotest.(check int) "empty" 0 (Bytes.length p)
  | None -> Alcotest.fail "open_ failed"

let hex_roundtrip () =
  Alcotest.(check string) "spaces ignored"
    (Hex.of_bytes (Hex.to_bytes "de ad be ef"))
    "deadbeef";
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.to_bytes: odd length")
    (fun () -> ignore (Hex.to_bytes "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.to_bytes: not a hex digit")
    (fun () -> ignore (Hex.to_bytes "zz"))

(* Property-based tests *)

let bytes_gen =
  QCheck2.Gen.(map Bytes.of_string (string_size ~gen:printable (0 -- 200)))

let prop_cmac_deterministic =
  QCheck2.Test.make ~name:"cmac: deterministic and verifies" ~count:200 bytes_gen
    (fun msg ->
      let k = Cmac.of_secret (Bytes.make 16 'q') in
      let t1 = Cmac.digest k msg and t2 = Cmac.digest k msg in
      Bytes.equal t1 t2 && Cmac.verify k msg ~tag:t1)

let prop_cmac_distinct_keys =
  QCheck2.Test.make ~name:"cmac: different keys give different tags" ~count:100
    bytes_gen (fun msg ->
      let k1 = Cmac.of_secret (Bytes.make 16 'a')
      and k2 = Cmac.of_secret (Bytes.make 16 'b') in
      not (Bytes.equal (Cmac.digest k1 msg) (Cmac.digest k2 msg)))

let prop_aead_roundtrip =
  QCheck2.Test.make ~name:"aead: seal/open roundtrip" ~count:200
    QCheck2.Gen.(pair bytes_gen bytes_gen)
    (fun (plain, ad) ->
      let k = Aead.of_secret (Bytes.make 16 'z') in
      let nonce = Bytes.init 16 (fun i -> Char.chr ((i * 7) mod 256)) in
      match Aead.open_ k ~nonce ~ad (Aead.seal k ~nonce ~ad plain) with
      | Some p -> Bytes.equal p plain
      | None -> false)

let prop_hex_roundtrip =
  QCheck2.Test.make ~name:"hex: roundtrip" ~count:200 bytes_gen (fun b ->
      Bytes.equal (Hex.to_bytes (Hex.of_bytes b)) b)

(* Differential: word-oriented kernel vs the byte-oriented reference.
   Every case draws its own random bytes from a seed, so a failure
   prints a reproducible seed. *)

let rand_bytes rng n = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))
let seed_gen = QCheck2.Gen.int_bound 0x3fffffff

let prop_aes_diff =
  QCheck2.Test.make ~name:"aes: block = reference (random offsets, aliasing)"
    ~count:1000 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let secret = rand_bytes rng 16 in
      let k = Aes.of_secret secret and r = Aes_ref.of_secret secret in
      let buf = rand_bytes rng 48 in
      let src_off = Random.State.int rng 33 and dst_off = Random.State.int rng 33 in
      (* Separate destinations. *)
      let d1 = Bytes.make 48 '\000' and d2 = Bytes.make 48 '\000' in
      Aes.encrypt_block k ~src:buf ~src_off ~dst:d1 ~dst_off;
      Aes_ref.encrypt_block r ~src:buf ~src_off ~dst:d2 ~dst_off;
      (* [src] and [dst] the same buffer, possibly overlapping. *)
      let a1 = Bytes.copy buf and a2 = Bytes.copy buf in
      Aes.encrypt_block k ~src:a1 ~src_off ~dst:a1 ~dst_off;
      Aes_ref.encrypt_block r ~src:a2 ~src_off ~dst:a2 ~dst_off;
      Bytes.equal d1 d2 && Bytes.equal a1 a2)

(* The T-table kernel, which the dispatched functions above skip on a
   CPU with AES-NI, through the same differential. On a CPU without
   AES-NI this and [prop_aes_diff] run the same kernel twice. *)
let prop_ttable_diff =
  QCheck2.Test.make ~name:"aes: T-table kernel = reference (random offsets, aliasing)"
    ~count:1000 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let secret = rand_bytes rng 16 in
      let k = Aes.of_secret secret and r = Aes_ref.of_secret secret in
      Aes.Ttable.rekey k secret ~off:0;
      let buf = rand_bytes rng 48 in
      let src_off = Random.State.int rng 33 and dst_off = Random.State.int rng 33 in
      let d1 = Bytes.make 48 '\000' and d2 = Bytes.make 48 '\000' in
      Aes.Ttable.encrypt_block k ~src:buf ~src_off ~dst:d1 ~dst_off;
      Aes_ref.encrypt_block r ~src:buf ~src_off ~dst:d2 ~dst_off;
      let a1 = Bytes.copy buf and a2 = Bytes.copy buf in
      Aes.Ttable.encrypt_block k ~src:a1 ~src_off ~dst:a1 ~dst_off;
      Aes_ref.encrypt_block r ~src:a2 ~src_off ~dst:a2 ~dst_off;
      Bytes.equal d1 d2 && Bytes.equal a1 a2)

(* Both kernels lay the schedule out the same way: a key expanded or
   re-keyed by one is encrypted correctly by the other. *)
let prop_schedule_diff =
  QCheck2.Test.make ~name:"aes: both kernels' expand/rekey = reference schedule"
    ~count:500 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let buf = rand_bytes rng 64 in
      let off = Random.State.int rng 49 in
      let secret = Bytes.sub buf off 16 in
      let expected = Bytes.to_string (Aes_ref.of_secret secret).Aes_ref.rk in
      let dispatched = Aes.expand secret in
      let rekeyed = Aes.of_secret (rand_bytes rng 16) in
      Aes.rekey rekeyed buf ~off;
      let table = Aes.of_secret (rand_bytes rng 16) in
      Aes.Ttable.rekey table buf ~off;
      let block = rand_bytes rng 16 in
      let via_ttable = Bytes.make 16 '\000' in
      Aes.Ttable.encrypt_block dispatched ~src:block ~src_off:0 ~dst:via_ttable
        ~dst_off:0;
      List.for_all
        (fun k -> String.equal (Aes.schedule k) expected)
        [ dispatched; rekeyed; table ]
      && Bytes.equal (Aes.encrypt table block) via_ttable)

(* Spans are checked in OCaml, before either kernel runs. *)
let aes_short_spans () =
  let k = Aes.of_secret (Bytes.make 16 'k') and b = Bytes.make 20 '\000' in
  let block = "Aes.encrypt_block: need 16 bytes" and key = "Aes.rekey: need 16 bytes" in
  List.iter
    (fun (name, encrypt_block, rekey) ->
      List.iter
        (fun (src_off, dst_off) ->
          Alcotest.check_raises
            (Printf.sprintf "%s src_off %d dst_off %d" name src_off dst_off)
            (Invalid_argument block) (fun () ->
              encrypt_block k ~src:b ~src_off ~dst:b ~dst_off))
        [ (5, 0); (0, 5); (-1, 0); (0, -1); (max_int, 0) ];
      List.iter
        (fun off ->
          Alcotest.check_raises
            (Printf.sprintf "%s rekey off %d" name off)
            (Invalid_argument key) (fun () -> rekey k b ~off))
        [ 5; -1; max_int ])
    [
      ("dispatched", Aes.encrypt_block, Aes.rekey);
      ("T-table", Aes.Ttable.encrypt_block, Aes.Ttable.rekey);
    ];
  (* Nothing was written: [b] is still all zeroes. *)
  Alcotest.(check string) "untouched" (String.make 20 '\000') (Bytes.to_string b)

let prop_rekey_diff =
  QCheck2.Test.make ~name:"aes/cmac: rekey at random offsets = reference"
    ~count:500 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let k = Aes.of_secret (rand_bytes rng 16) in
      let c = Cmac.of_secret (rand_bytes rng 16) in
      let buf = rand_bytes rng 64 in
      let off = Random.State.int rng 49 in
      Aes.rekey k buf ~off;
      Cmac.rekey c buf ~off;
      let secret = Bytes.sub buf off 16 in
      let r = Aes_ref.of_secret secret and cr = Cmac_ref.of_secret secret in
      let block = rand_bytes rng 16 and msg = rand_bytes rng 40 in
      Bytes.equal (Aes.encrypt k block) (Aes_ref.encrypt r block)
      && Bytes.equal (Cmac.digest c msg) (Cmac_ref.digest cr msg))

let prop_cmac_diff =
  QCheck2.Test.make
    ~name:"cmac: digest/_into/_trunc_into/verify_at = reference, len 0-100"
    ~count:1000 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let secret = rand_bytes rng 16 in
      let k = Cmac.of_secret secret and r = Cmac_ref.of_secret secret in
      let len = Random.State.int rng 101 and off = Random.State.int rng 20 in
      let buf = rand_bytes rng (off + len + Random.State.int rng 20) in
      let msg = Bytes.sub buf off len in
      let full = Cmac_ref.digest r msg in
      let dst_off = Random.State.int rng 8 in
      let d1 = Bytes.make 24 '\000' and d2 = Bytes.make 24 '\000' in
      Cmac.digest_into k buf ~off ~len ~dst:d1 ~dst_off;
      Cmac_ref.digest_into r buf ~off ~len ~dst:d2 ~dst_off;
      let tag_len = 1 + Random.State.int rng 16 in
      let t1 = Bytes.make 24 '\000' and t2 = Bytes.make 24 '\000' in
      Cmac.digest_trunc_into k buf ~off ~len ~dst:t1 ~dst_off ~tag_len;
      Cmac_ref.digest_trunc_into r buf ~off ~len ~dst:t2 ~dst_off ~tag_len;
      let tag = Bytes.cat (rand_bytes rng dst_off) full in
      let bad = Bytes.copy tag in
      let flip = dst_off + Random.State.int rng tag_len in
      Bytes.set bad flip (Char.chr (Char.code (Bytes.get bad flip) lxor 1));
      let verdict t =
        ( Cmac.verify_at k buf ~off ~len ~tag:t ~tag_off:dst_off ~tag_len,
          Cmac_ref.verify_at r buf ~off ~len ~tag:t ~tag_off:dst_off ~tag_len )
      in
      Bytes.equal (Cmac.digest k msg) full
      && Bytes.equal d1 d2 && Bytes.equal t1 t2
      && verdict tag = (true, true)
      && verdict bad = (false, false))

let prop_aead_prf_diff =
  QCheck2.Test.make ~name:"aead/prf: seal, open_ and derive = reference"
    ~count:300 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let secret = rand_bytes rng 16 and nonce = rand_bytes rng 16 in
      let ad = rand_bytes rng (Random.State.int rng 40) in
      let plain = rand_bytes rng (Random.State.int rng 100) in
      let k = Aead.of_secret secret and r = Aead_ref.of_secret secret in
      let sealed = Aead.seal k ~nonce ~ad plain in
      let input = rand_bytes rng (Random.State.int rng 64) in
      Bytes.equal sealed (Aead_ref.seal r ~nonce ~ad plain)
      && Option.equal Bytes.equal (Aead.open_ k ~nonce ~ad sealed) (Some plain)
      && Option.equal Bytes.equal
           (Aead_ref.open_ r ~nonce ~ad sealed)
           (Some plain)
      && Bytes.equal
           (Prf.derive (Prf.of_secret secret) input)
           (Cmac_ref.digest (Cmac_ref.of_secret secret) input))

(* The wire path's MAC kernels allocate nothing: the router re-keys and
   runs a CMAC per packet. Same pin style as test_view.ml. The [Aes]
   and [Cmac] pins run the kernel this CPU dispatches to; the [Ttable]
   pins run the fallback on any host. *)
let kernels_zero_alloc () =
  let aes = Aes.of_secret (Bytes.make 16 'a') in
  let cmac = Cmac.of_secret (Bytes.make 16 'c') in
  let buf = Bytes.init 64 (fun i -> Char.chr i) and out = Bytes.make 16 '\000' in
  let pin what f =
    for _ = 1 to 1_000 do
      f ()
    done;
    let before = Gc.minor_words () in
    let n = 10_000 in
    for _ = 1 to n do
      f ()
    done;
    let delta = Gc.minor_words () -. before in
    (* Slack covers only the boxed floats of the two [Gc.minor_words]
       reads; 10k calls at even 1 word each would blow far past it. *)
    if delta > 64. then
      Alcotest.failf "%s allocated %.0f minor words over %d calls" what delta n
  in
  pin "Aes.encrypt_block" (fun () ->
      Aes.encrypt_block aes ~src:buf ~src_off:3 ~dst:out ~dst_off:0);
  pin "Aes.rekey" (fun () -> Aes.rekey aes buf ~off:7);
  pin "Aes.Ttable.encrypt_block" (fun () ->
      Aes.Ttable.encrypt_block aes ~src:buf ~src_off:3 ~dst:out ~dst_off:0);
  pin "Aes.Ttable.rekey" (fun () -> Aes.Ttable.rekey aes buf ~off:7);
  pin "Cmac.rekey" (fun () -> Cmac.rekey cmac buf ~off:5);
  pin "Cmac.digest_into" (fun () ->
      Cmac.digest_into cmac buf ~off:1 ~len:40 ~dst:out ~dst_off:0)

let suite =
  [
    Alcotest.test_case "AES FIPS-197 vector" `Quick aes_fips_vector;
    Alcotest.test_case "AES SP800-38A vectors" `Quick aes_sp800_38a_vectors;
    Alcotest.test_case "AES rejects bad key size" `Quick aes_bad_key_size;
    Alcotest.test_case "AES in-place block" `Quick aes_in_place;
    Alcotest.test_case "CMAC RFC 4493 vectors" `Quick cmac_rfc4493_vectors;
    Alcotest.test_case "CMAC truncation" `Quick cmac_truncation;
    Alcotest.test_case "CMAC verify" `Quick cmac_verify;
    Alcotest.test_case "AEAD roundtrip" `Quick aead_roundtrip;
    Alcotest.test_case "AEAD rejects tampering" `Quick aead_rejects_tampering;
    Alcotest.test_case "AEAD empty plaintext" `Quick aead_empty_plaintext;
    Alcotest.test_case "hex helpers" `Quick hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_cmac_deterministic;
    QCheck_alcotest.to_alcotest prop_cmac_distinct_keys;
    QCheck_alcotest.to_alcotest prop_aead_roundtrip;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_aes_diff;
    QCheck_alcotest.to_alcotest prop_rekey_diff;
    QCheck_alcotest.to_alcotest prop_cmac_diff;
    QCheck_alcotest.to_alcotest prop_aead_prf_diff;
    Alcotest.test_case "AES/CMAC kernels allocate 0 words" `Quick kernels_zero_alloc;
    Alcotest.test_case "CMAC copy is independent" `Quick cmac_copy;
    QCheck_alcotest.to_alcotest prop_ttable_diff;
    QCheck_alcotest.to_alcotest prop_schedule_diff;
    Alcotest.test_case "AES spans are checked before either kernel" `Quick aes_short_spans;
  ]
