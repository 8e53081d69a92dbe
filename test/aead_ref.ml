(* Reference implementation kept for differential testing: the AEAD of
   lib/crypto/aead.ml with its byte-loop CTR keystream XOR, built on the
   reference AES and CMAC. Do not optimise. *)

module Aes = Aes_ref
module Cmac = Cmac_ref

module Prf = struct
  let of_secret = Cmac.of_secret
  let derive_string k s = Cmac.digest k (Bytes.of_string s)
end

(** Authenticated encryption with associated data, built as
    encrypt-then-MAC from AES-CTR and AES-CMAC.

    Colibri uses AEAD on exactly one channel: returning hop
    authenticators [σ_i] from on-path ASes to the source AS during EER
    setup (Eq. (5)), keyed with the DRKey [K_{AS_i → AS_0}]. Encryption
    and MAC keys are domain-separated from the given secret by one PRF
    call each. The tag covers [nonce ‖ len(ad) ‖ ad ‖ ciphertext]. *)

type key = { enc : Aes.key; mac : Cmac.key }

let nonce_size = 16
let tag_size = 16

let of_secret (secret : bytes) : key =
  let prf = Prf.of_secret secret in
  {
    enc = Aes.of_secret (Prf.derive_string prf "colibri-aead-enc");
    mac = Cmac.of_secret (Prf.derive_string prf "colibri-aead-mac");
  }

(* CTR keystream: block i is AES_K(nonce ⊕ ctr_i) where the counter
   occupies the last 8 bytes big-endian. *)
let ctr_xor (k : Aes.key) ~(nonce : bytes) (data : bytes) : bytes =
  let n = Bytes.length data in
  let out = Bytes.create n in
  let block = Bytes.create 16 in
  let ks = Bytes.create 16 in
  let nblocks = (n + 15) / 16 in
  for i = 0 to nblocks - 1 do
    Bytes.blit nonce 0 block 0 16;
    let ctr = Int64.of_int i in
    let prev = Bytes.get_int64_be block 8 in
    Bytes.set_int64_be block 8 (Int64.logxor prev ctr);
    Aes.encrypt_block k ~src:block ~src_off:0 ~dst:ks ~dst_off:0;
    let base = i * 16 in
    let len = min 16 (n - base) in
    for j = 0 to len - 1 do
      Bytes.set out (base + j)
        (Char.chr (Char.code (Bytes.get data (base + j)) lxor Char.code (Bytes.get ks j)))
    done
  done;
  out

let tag_input ~nonce ~ad ~cipher =
  let adlen = Bytes.length ad in
  let b = Buffer.create (16 + 4 + adlen + Bytes.length cipher) in
  Buffer.add_bytes b nonce;
  Buffer.add_int32_be b (Int32.of_int adlen);
  Buffer.add_bytes b ad;
  Buffer.add_bytes b cipher;
  Buffer.to_bytes b

(** [seal key ~nonce ~ad plaintext] returns [ciphertext ‖ tag]. The
    nonce must be 16 bytes and unique per key. *)
let seal (k : key) ~(nonce : bytes) ~(ad : bytes) (plain : bytes) : bytes =
  if Bytes.length nonce <> nonce_size then invalid_arg "Aead.seal: bad nonce size";
  let cipher = ctr_xor k.enc ~nonce plain in
  let tag = Cmac.digest k.mac (tag_input ~nonce ~ad ~cipher) in
  Bytes.cat cipher tag

(** [open_ key ~nonce ~ad sealed] authenticates and decrypts; [None]
    if the tag does not verify or the input is too short. *)
let open_ (k : key) ~(nonce : bytes) ~(ad : bytes) (sealed : bytes) : bytes option =
  let n = Bytes.length sealed in
  if Bytes.length nonce <> nonce_size || n < tag_size then None
  else begin
    let cipher = Bytes.sub sealed 0 (n - tag_size) in
    let tag = Bytes.sub sealed (n - tag_size) tag_size in
    if Cmac.verify k.mac (tag_input ~nonce ~ad ~cipher) ~tag then
      Some (ctr_xor k.enc ~nonce cipher)
    else None
  end
