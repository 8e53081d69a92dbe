(* Reference implementation kept for differential testing: the
   byte-oriented AES-128 that lib/crypto/aes.ml used before its
   word-oriented T-table kernel. test_crypto.ml checks the two agree on
   every block and key schedule. Do not optimise. *)

(** AES-128 block cipher (FIPS-197), encryption direction only.

    Colibri needs AES only as a pseudo-random permutation underneath
    CMAC (hop-validation-field MACs, DRKey PRF) and CTR-mode AEAD, all
    of which use the forward direction exclusively. The implementation
    is a straightforward byte-oriented rendition of the standard with a
    precomputed S-box and xtime table; it is validated against the
    FIPS-197 and SP 800-38A vectors in the test suite.

    Performance note: the paper's data plane uses AES-NI; here a block
    costs a few hundred nanoseconds, which uniformly scales down the
    absolute packet rates of the benchmarks without changing their
    shape (see DESIGN.md §3). *)

type key = { rk : bytes; st : int array; tmp : int array }
(** Expanded key schedule (11 round keys of 16 bytes, 176 bytes) plus
    the two 16-cell state arrays {!encrypt_block} works in. Hoisting
    the state into the key makes a block encryption allocation-free on
    the wire path (DESIGN.md §8); the price is that one [key] value
    must not be used from two domains concurrently. *)

let block_size = 16

let sbox =
  "\x63\x7c\x77\x7b\xf2\x6b\x6f\xc5\x30\x01\x67\x2b\xfe\xd7\xab\x76\
   \xca\x82\xc9\x7d\xfa\x59\x47\xf0\xad\xd4\xa2\xaf\x9c\xa4\x72\xc0\
   \xb7\xfd\x93\x26\x36\x3f\xf7\xcc\x34\xa5\xe5\xf1\x71\xd8\x31\x15\
   \x04\xc7\x23\xc3\x18\x96\x05\x9a\x07\x12\x80\xe2\xeb\x27\xb2\x75\
   \x09\x83\x2c\x1a\x1b\x6e\x5a\xa0\x52\x3b\xd6\xb3\x29\xe3\x2f\x84\
   \x53\xd1\x00\xed\x20\xfc\xb1\x5b\x6a\xcb\xbe\x39\x4a\x4c\x58\xcf\
   \xd0\xef\xaa\xfb\x43\x4d\x33\x85\x45\xf9\x02\x7f\x50\x3c\x9f\xa8\
   \x51\xa3\x40\x8f\x92\x9d\x38\xf5\xbc\xb6\xda\x21\x10\xff\xf3\xd2\
   \xcd\x0c\x13\xec\x5f\x97\x44\x17\xc4\xa7\x7e\x3d\x64\x5d\x19\x73\
   \x60\x81\x4f\xdc\x22\x2a\x90\x88\x46\xee\xb8\x14\xde\x5e\x0b\xdb\
   \xe0\x32\x3a\x0a\x49\x06\x24\x5c\xc2\xd3\xac\x62\x91\x95\xe4\x79\
   \xe7\xc8\x37\x6d\x8d\xd5\x4e\xa9\x6c\x56\xf4\xea\x65\x7a\xae\x08\
   \xba\x78\x25\x2e\x1c\xa6\xb4\xc6\xe8\xdd\x74\x1f\x4b\xbd\x8b\x8a\
   \x70\x3e\xb5\x66\x48\x03\xf6\x0e\x61\x35\x57\xb9\x86\xc1\x1d\x9e\
   \xe1\xf8\x98\x11\x69\xd9\x8e\x94\x9b\x1e\x87\xe9\xce\x55\x28\xdf\
   \x8c\xa1\x89\x0d\xbf\xe6\x42\x68\x41\x99\x2d\x0f\xb0\x54\xbb\x16"

(* xtime.[i] = i·2 in GF(2^8) with the AES polynomial. *)
let xtime =
  String.init 256 (fun i ->
      let d = i lsl 1 in
      Char.chr (if d land 0x100 <> 0 then d lxor 0x11b land 0xff else d))

(* A constant lookup table: written by nobody after initialization,
   so sharing it across router domains is benign. Reviewed
   (DESIGN.md §11) — domaincheck cannot prove immutability of an
   [int array], hence the allow. *)
let rcon =
  [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]
[@@colibri.allow "d6 d7"]

let sub i = Char.code sbox.[i]

(* Key-schedule core: expand the 16-byte key at [key+off] into [rk]
   (176 bytes), in place. Shared by [expand] and [rekey]. The loop body
   is written without helper closures or intermediate tuples: the
   router re-runs this schedule per EER packet (σ re-derivation), so it
   must not allocate. *)
(* hot-path *)
let expand_into (rk : bytes) (key : bytes) ~(off : int) =
  Bytes.blit key off rk 0 16;
  for i = 4 to 43 do
    let wb = (i * 4) - 16 (* word i-4 *) and pb = (i * 4) - 4 (* word i-1 *) in
    let w0 = Char.code (Bytes.get rk wb)
    and w1 = Char.code (Bytes.get rk (wb + 1))
    and w2 = Char.code (Bytes.get rk (wb + 2))
    and w3 = Char.code (Bytes.get rk (wb + 3)) in
    let p0 = Char.code (Bytes.get rk pb)
    and p1 = Char.code (Bytes.get rk (pb + 1))
    and p2 = Char.code (Bytes.get rk (pb + 2))
    and p3 = Char.code (Bytes.get rk (pb + 3)) in
    if i mod 4 = 0 then begin
      (* RotWord + SubWord + Rcon *)
      Bytes.set rk (i * 4) (Char.chr (w0 lxor (sub p1 lxor rcon.((i / 4) - 1))));
      Bytes.set rk ((i * 4) + 1) (Char.chr (w1 lxor sub p2));
      Bytes.set rk ((i * 4) + 2) (Char.chr (w2 lxor sub p3));
      Bytes.set rk ((i * 4) + 3) (Char.chr (w3 lxor sub p0))
    end
    else begin
      Bytes.set rk (i * 4) (Char.chr (w0 lxor p0));
      Bytes.set rk ((i * 4) + 1) (Char.chr (w1 lxor p1));
      Bytes.set rk ((i * 4) + 2) (Char.chr (w2 lxor p2));
      Bytes.set rk ((i * 4) + 3) (Char.chr (w3 lxor p3))
    end
  done

(** Expand a 16-byte key into the 11-round-key schedule. *)
let expand (key : bytes) : key =
  if Bytes.length key <> 16 then invalid_arg "Aes.expand: key must be 16 bytes";
  let rk = Bytes.create 176 in
  expand_into rk key ~off:0;
  { rk; st = Array.make 16 0; tmp = Array.make 16 0 }

let of_secret = expand

(** [rekey k key ~off] re-expands the 16-byte secret at [key+off] into
    [k]'s existing schedule, reusing its buffers. This is how the router
    derives the per-reservation σ key without allocating (DESIGN.md §8). *)
(* hot-path *)
let rekey (k : key) (key : bytes) ~(off : int) =
  (* Caller-contract guard: σ-key offsets come from validated headers. *)
  if off < 0 || off + 16 > Bytes.length key then
    invalid_arg "Aes.rekey: need 16 bytes" [@colibri.allow "d2"];
  expand_into k.rk key ~off

(** [encrypt_block key ~src ~src_off ~dst ~dst_off] encrypts the
    16-byte block at [src+src_off] into [dst+dst_off]. [src] and [dst]
    may alias. The state lives in the key's scratch arrays; all heavy
    inner operations are table lookups. *)
(* hot-path *)
let encrypt_block (k : key) ~(src : bytes) ~src_off ~(dst : bytes) ~dst_off =
  let rk = k.rk in
  let s = k.st in
  for i = 0 to 15 do
    s.(i) <- Char.code (Bytes.get src (src_off + i)) lxor Char.code (Bytes.get rk i)
  done;
  let tmp = k.tmp in
  for round = 1 to 10 do
    (* SubBytes + ShiftRows combined: tmp.(col*4+row) <- S(s[(col+row)*4+row]) *)
    for col = 0 to 3 do
      tmp.((col * 4) + 0) <- sub s.(col * 4);
      tmp.((col * 4) + 1) <- sub s.((((col + 1) land 3) * 4) + 1);
      tmp.((col * 4) + 2) <- sub s.((((col + 2) land 3) * 4) + 2);
      tmp.((col * 4) + 3) <- sub s.((((col + 3) land 3) * 4) + 3)
    done;
    if round < 10 then
      (* MixColumns *)
      for col = 0 to 3 do
        let a0 = tmp.(col * 4)
        and a1 = tmp.((col * 4) + 1)
        and a2 = tmp.((col * 4) + 2)
        and a3 = tmp.((col * 4) + 3) in
        let x v = Char.code xtime.[v] in
        s.(col * 4) <- x a0 lxor (x a1 lxor a1) lxor a2 lxor a3;
        s.((col * 4) + 1) <- a0 lxor x a1 lxor (x a2 lxor a2) lxor a3;
        s.((col * 4) + 2) <- a0 lxor a1 lxor x a2 lxor (x a3 lxor a3);
        s.((col * 4) + 3) <- (x a0 lxor a0) lxor a1 lxor a2 lxor x a3
      done
    else Array.blit tmp 0 s 0 16;
    (* AddRoundKey *)
    let base = round * 16 in
    for i = 0 to 15 do
      s.(i) <- s.(i) lxor Char.code (Bytes.get rk (base + i))
    done
  done;
  for i = 0 to 15 do
    Bytes.set dst (dst_off + i) (Char.chr s.(i))
  done

(** Convenience: encrypt one standalone 16-byte block. *)
let encrypt (k : key) (block : bytes) : bytes =
  if Bytes.length block <> 16 then invalid_arg "Aes.encrypt: block must be 16 bytes";
  let out = Bytes.create 16 in
  encrypt_block k ~src:block ~src_off:0 ~dst:out ~dst_off:0;
  out
