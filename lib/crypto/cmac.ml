(** AES-CMAC (RFC 4493 / NIST SP 800-38B).

    CMAC over AES-128 is the message-authentication primitive used
    everywhere in Colibri: the DRKey pseudo-random function (Eq. (1)),
    the segment-reservation tokens (Eq. (3)), the hop authenticators
    (Eq. (4)), and the per-packet hop validation fields (Eq. (6)).

    The key record carries the two working blocks the digest loop needs
    ([x], [last]) so that {!digest_into} / {!digest_trunc_into} are
    allocation-free; see DESIGN.md §8 for the scratch-ownership rules.
    A consequence is that one [key] must not be shared across domains. *)

type key = { aes : Aes.key; k1 : bytes; k2 : bytes; x : bytes; last : bytes }

(* [dst ^= src] over 16 bytes, as two 64-bit words. *)
let[@inline] xor16 (dst : bytes) ~doff (src : bytes) ~soff =
  Bytes.set_int64_ne dst doff
    (Int64.logxor (Bytes.get_int64_ne dst doff) (Bytes.get_int64_ne src soff));
  Bytes.set_int64_ne dst (doff + 8)
    (Int64.logxor
       (Bytes.get_int64_ne dst (doff + 8))
       (Bytes.get_int64_ne src (soff + 8)))

(* Doubling in GF(2^128) (RFC 4493 §2.3): shift the big-endian 16-byte
   block [src] left by one bit into [dst] (may alias), folding the
   carried-out bit back in as 0x87. Branch-free. *)
let dbl_into ~(src : bytes) ~(dst : bytes) =
  let hi = Bytes.get_int64_be src 0 and lo = Bytes.get_int64_be src 8 in
  Bytes.set_int64_be dst 0
    (Int64.logor (Int64.shift_left hi 1) (Int64.shift_right_logical lo 63));
  Bytes.set_int64_be dst 8
    (Int64.logxor (Int64.shift_left lo 1)
       (Int64.logand (Int64.shift_right hi 63) 0x87L))

(* Subkey generation per RFC 4493 §2.3, writing into existing [k1]/[k2]
   buffers. [scratch] holds the intermediate L = AES_K(0^128). *)
let derive_subkeys_into aes ~(k1 : bytes) ~(k2 : bytes) ~(scratch : bytes) =
  Bytes.fill scratch 0 16 '\000';
  Aes.encrypt_block aes ~src:scratch ~src_off:0 ~dst:scratch ~dst_off:0;
  dbl_into ~src:scratch ~dst:k1;
  dbl_into ~src:k1 ~dst:k2

let of_aes_key (aes : Aes.key) : key =
  let k1 = Bytes.create 16 and k2 = Bytes.create 16 in
  let x = Bytes.create 16 and last = Bytes.create 16 in
  derive_subkeys_into aes ~k1 ~k2 ~scratch:x;
  { aes; k1; k2; x; last }

let of_secret (secret : bytes) : key = of_aes_key (Aes.of_secret secret)
let copy (k : key) : key = of_aes_key (Aes.copy k.aes)

(** [rekey k secret ~off] re-keys [k] in place with the 16-byte secret
    at [secret+off]: the AES schedule and both CMAC subkeys are
    recomputed into the existing buffers, with zero allocation. This is
    how the router re-derives the per-reservation σ key per packet. *)
(* hot-path *)
let rekey (k : key) (secret : bytes) ~(off : int) =
  Aes.rekey k.aes secret ~off;
  derive_subkeys_into k.aes ~k1:k.k1 ~k2:k.k2 ~scratch:k.x

let mac_size = 16

(* Core CMAC over the span [msg+off, msg+off+len); leaves the 16-byte
   tag in [k.x]. Allocation-free. *)
(* hot-path *)
let digest_core (k : key) (msg : bytes) ~(off : int) ~(len : int) =
  (* Caller-contract guard: offsets on the wire path are computed from
     already-validated headers, so this never fires per packet. *)
  if off < 0 || len < 0 || off + len > Bytes.length msg then
    invalid_arg "Cmac.digest: span out of bounds" [@colibri.allow "d2"];
  let nblocks = if len = 0 then 1 else (len + 15) / 16 in
  let x = k.x in
  Bytes.fill x 0 16 '\000';
  (* Process all complete blocks except the last. *)
  for i = 0 to nblocks - 2 do
    xor16 x ~doff:0 msg ~soff:(off + (i * 16));
    Aes.encrypt_block k.aes ~src:x ~src_off:0 ~dst:x ~dst_off:0
  done;
  (* Last block: complete → xor K1; partial → pad 10* and xor K2. *)
  let boff = off + ((nblocks - 1) * 16) in
  let rem = len - ((nblocks - 1) * 16) in
  if rem = 16 then begin
    xor16 x ~doff:0 msg ~soff:boff;
    xor16 x ~doff:0 k.k1 ~soff:0
  end
  else begin
    let last = k.last in
    Bytes.fill last 0 16 '\000';
    if rem > 0 then Bytes.blit msg boff last 0 rem;
    Bytes.set last rem '\x80';
    xor16 x ~doff:0 last ~soff:0;
    xor16 x ~doff:0 k.k2 ~soff:0
  end;
  Aes.encrypt_block k.aes ~src:x ~src_off:0 ~dst:x ~dst_off:0

(** [digest_into k msg ~off ~len ~dst ~dst_off] writes the 16-byte CMAC
    of the span [msg+off, msg+off+len) into [dst+dst_off]. The only
    buffers touched are [dst] and [k]'s own scratch. *)
(* hot-path *)
let digest_into (k : key) (msg : bytes) ~off ~len ~(dst : bytes) ~dst_off =
  (* Caller-contract guard, as in [digest_core]. *)
  if dst_off < 0 || dst_off + 16 > Bytes.length dst then
    invalid_arg "Cmac.digest_into: dst span out of bounds" [@colibri.allow "d2"];
  digest_core k msg ~off ~len;
  Bytes.blit k.x 0 dst dst_off 16

(** [digest_trunc_into] is {!digest_into} truncated to [tag_len] bytes
    (Colibri truncates hop validation fields to ℓ_hvf = 4 bytes). *)
(* hot-path *)
let digest_trunc_into (k : key) (msg : bytes) ~off ~len ~(dst : bytes) ~dst_off
    ~tag_len =
  (* Caller-contract guards, as in [digest_core]. *)
  if tag_len < 1 || tag_len > 16 then
    invalid_arg "Cmac.digest_trunc_into: tag_len must be in 1..16" [@colibri.allow "d2"];
  if dst_off < 0 || dst_off + tag_len > Bytes.length dst then
    invalid_arg "Cmac.digest_trunc_into: dst span out of bounds" [@colibri.allow "d2"];
  digest_core k msg ~off ~len;
  Bytes.blit k.x 0 dst dst_off tag_len

(** [digest key msg] is the full 16-byte CMAC of [msg]. *)
let digest (k : key) (msg : bytes) : bytes =
  let out = Bytes.create 16 in
  digest_into k msg ~off:0 ~len:(Bytes.length msg) ~dst:out ~dst_off:0;
  out

(** [digest_trunc key msg ~len] is the first [len] bytes of the CMAC. *)
let digest_trunc (k : key) (msg : bytes) ~len : bytes =
  if len < 1 || len > 16 then invalid_arg "Cmac.digest_trunc: len must be in 1..16";
  let out = Bytes.create len in
  digest_trunc_into k msg ~off:0 ~len:(Bytes.length msg) ~dst:out ~dst_off:0
    ~tag_len:len;
  out

(** Constant-time comparison of the first [tag_len] bytes of the CMAC of
    the span [msg+off, msg+off+len) against [tag+tag_off]. Allocation-
    free: this is what the router's per-packet HVF check compiles to. *)
(* hot-path *)
let verify_at (k : key) (msg : bytes) ~off ~len ~(tag : bytes) ~tag_off ~tag_len
    : bool =
  if tag_len < 1 || tag_len > 16 then false
  else if tag_off < 0 || tag_off + tag_len > Bytes.length tag then false
  else begin
    digest_core k msg ~off ~len;
    let expect = k.x in
    let acc = ref 0 in
    for i = 0 to tag_len - 1 do
      acc :=
        !acc
        lor (Char.code (Bytes.get expect i)
            lxor Char.code (Bytes.get tag (tag_off + i)))
    done;
    !acc = 0
  end

(** Constant-time tag comparison (length must match). *)
let verify (k : key) (msg : bytes) ~(tag : bytes) : bool =
  verify_at k msg ~off:0 ~len:(Bytes.length msg) ~tag ~tag_off:0
    ~tag_len:(Bytes.length tag)
