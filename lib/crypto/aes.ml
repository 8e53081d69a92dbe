(** AES-128 block cipher (FIPS-197), encryption direction only.

    Colibri needs AES only as a pseudo-random permutation underneath
    CMAC (hop-validation-field MACs, DRKey PRF) and CTR-mode AEAD, all
    of which use the forward direction exclusively. Two kernels sit
    behind one key type, and the CPU picks between them once, at
    start-up:

    - AES-NI, as in the paper's gateway, routers and CServ: one AESENC
      instruction per round, and AESENCLAST for SubWord in the key
      schedule, in two allocation-free C stubs ([aes_stubs.c]);
    - on CPUs without AES-NI, a word-oriented T-table kernel: each
      state column is one 32-bit word held in an OCaml int, a round is
      sixteen lookups into four combined SubBytes+MixColumns tables,
      and the key schedule runs on whole words. Its table lookups at
      secret-dependent indices are not constant-time (DESIGN.md §3).

    Both kernels read and write the same schedule layout, and the test
    suite checks both against the FIPS-197 and SP 800-38A vectors and,
    differentially, against a byte-oriented reference rendition of the
    standard. *)

type key = bytes
(** The expanded schedule: 176 bytes, 11 round keys in FIPS-197 byte
    order, so AES-NI loads round key [r] whole from offset [16r] and
    the T-table kernel reads column [c] of it as the little-endian word
    at [16r + 4c]. Encryption only reads it, so the key carries no
    scratch state; {!rekey} rewrites it in place. *)

let block_size = 16
let schedule_size = 176

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

(* Round constants of the key schedule. Every table is an immutable
   [string], so the router domains share them without a waiver
   (DESIGN.md §11). *)
let rcon = "\x01\x02\x04\x08\x10\x20\x40\x80\x1b\x36"

let sub i = Char.code (String.get sbox i)

(* The four T-tables, 1 KiB each, back to back: entry [x] of table [t]
   is the column MixColumns makes of S(x) entering at row [t], i.e. row
   [r] holds c·S(x) with c = (2, 1, 1, 3).((r - t) mod 4) in GF(2^8). *)
let ttables =
  String.init 4096 (fun i ->
      let t = i lsr 10 and x = (i lsr 2) land 0xff and r = i land 3 in
      let s = sub x in
      let s2 = if s land 0x80 <> 0 then (s lsl 1) lxor 0x11b else s lsl 1 in
      Char.chr
        (match (r - t) land 3 with 0 -> s2 | 3 -> s2 lxor s | _ -> s))

(* The T-table kernel. Words are little-endian: byte [r] of a column
   (state row [r]) sits at bits [8r .. 8r+7], so a column loads from
   and stores to the block or the schedule with one
   [get_int32_le]/[set_int32_le]. Lookups sign-extend bit 31; only the
   low 32 bits of any word are meaningful, and every byte extraction
   masks. *)

(* [te off] reads the table word at byte offset [off]; callers build
   [off] as [t·1024 + 4·x] straight from a state word, e.g.
   [(w lsr 6) land 0x3fc] is 4 × (row-1 byte of [w]). *)
let[@inline] te off = Int32.to_int (String.get_int32_le ttables off)

(* Load word [i] of the 16-byte block at [b+off]; word [i] of the
   schedule is column [i mod 4] of round key [i / 4]. *)
let[@inline] load b off i = Int32.to_int (Bytes.get_int32_le b (off + (4 * i)))
let[@inline] store b i w = Bytes.set_int32_le b (4 * i) (Int32.of_int w)

(* Key-schedule core: expand the 16-byte key at [key+off] into [rk],
   in place. One iteration produces a whole round key:
   RotWord+SubWord+Rcon on the last word, then a running XOR. The
   router re-runs this schedule per EER packet (σ re-derivation), so it
   must not allocate. *)
(* hot-path *)
let tt_expand_into (rk : key) (key : bytes) ~(off : int) =
  let w0 = ref (load key off 0) and w1 = ref (load key off 1) in
  let w2 = ref (load key off 2) and w3 = ref (load key off 3) in
  store rk 0 !w0;
  store rk 1 !w1;
  store rk 2 !w2;
  store rk 3 !w3;
  for r = 1 to 10 do
    let p = !w3 in
    let t =
      sub ((p lsr 8) land 0xff)
      lor (sub ((p lsr 16) land 0xff) lsl 8)
      lor (sub ((p lsr 24) land 0xff) lsl 16)
      lor (sub (p land 0xff) lsl 24)
      lxor Char.code (String.get rcon (r - 1))
    in
    w0 := !w0 lxor t;
    w1 := !w1 lxor !w0;
    w2 := !w2 lxor !w1;
    w3 := !w3 lxor !w2;
    let b = 4 * r in
    store rk b !w0;
    store rk (b + 1) !w1;
    store rk (b + 2) !w2;
    store rk (b + 3) !w3
  done

(* Final-round column: SubBytes+ShiftRows without MixColumns, taking
   row [r] from [a_r], plus the round key. *)
let[@inline] last_col a0 a1 a2 a3 k =
  sub (a0 land 0xff)
  lor (sub ((a1 lsr 8) land 0xff) lsl 8)
  lor (sub ((a2 lsr 16) land 0xff) lsl 16)
  lor (sub ((a3 lsr 24) land 0xff) lsl 24)
  lxor k

(* Inner-round column: T0(a0) ⊕ T1(a1) ⊕ T2(a2) ⊕ T3(a3) ⊕ k, with row
   [r] of [a_r] selecting the entry of table [r]. *)
let[@inline] round_col a0 a1 a2 a3 k =
  te ((a0 lsl 2) land 0x3fc)
  lxor te (1024 lor ((a1 lsr 6) land 0x3fc))
  lxor te (2048 lor ((a2 lsr 14) land 0x3fc))
  lxor te (3072 lor ((a3 lsr 22) land 0x3fc))
  lxor k

(* Encrypt the 16-byte block at [src+src_off] into [dst+dst_off]. The
   block is read whole before anything is written, so [src] and [dst]
   may alias. The four state columns live in locals. *)
(* hot-path *)
let tt_encrypt_block (rk : key) ~(src : bytes) ~src_off ~(dst : bytes) ~dst_off =
  let s0 = ref (load src src_off 0 lxor load rk 0 0) in
  let s1 = ref (load src src_off 1 lxor load rk 0 1) in
  let s2 = ref (load src src_off 2 lxor load rk 0 2) in
  let s3 = ref (load src src_off 3 lxor load rk 0 3) in
  for r = 1 to 9 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and b = 16 * r in
    (* ShiftRows: column [j] takes row [r] from column [j + r]. *)
    s0 := round_col a0 a1 a2 a3 (load rk b 0);
    s1 := round_col a1 a2 a3 a0 (load rk b 1);
    s2 := round_col a2 a3 a0 a1 (load rk b 2);
    s3 := round_col a3 a0 a1 a2 (load rk b 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  Bytes.set_int32_le dst dst_off (Int32.of_int (last_col a0 a1 a2 a3 (load rk 160 0)));
  Bytes.set_int32_le dst (dst_off + 4)
    (Int32.of_int (last_col a1 a2 a3 a0 (load rk 160 1)));
  Bytes.set_int32_le dst (dst_off + 8)
    (Int32.of_int (last_col a2 a3 a0 a1 (load rk 160 2)));
  Bytes.set_int32_le dst (dst_off + 12)
    (Int32.of_int (last_col a3 a0 a1 a2 (load rk 160 3)))

(* The AES-NI kernel (aes_stubs.c). The stubs trust their arguments:
   every caller below has checked the 16-byte spans, and a [key] is
   always [schedule_size] bytes. *)
external aesni_available : unit -> bool = "colibri_aesni_available" [@@noalloc]

external aesni_expand : bytes -> (int[@untagged]) -> key -> unit
  = "colibri_aesni_expand_byte" "colibri_aesni_expand"
[@@noalloc]

external aesni_encrypt :
  key -> bytes -> (int[@untagged]) -> bytes -> (int[@untagged]) -> unit
  = "colibri_aesni_encrypt_byte" "colibri_aesni_encrypt"
[@@noalloc]

(* Chosen once, from CPUID. *)
let hardware = aesni_available ()

(* Caller-contract guard for a 16-byte span: offsets on the wire path
   come from validated headers, so this never fires per packet. *)
let[@inline] check_span what (b : bytes) off =
  if off < 0 || off > Bytes.length b - 16 then
    invalid_arg what [@colibri.allow "d2"]

(** Expand a 16-byte key into the 11-round-key schedule. *)
let expand (key : bytes) : key =
  if Bytes.length key <> 16 then invalid_arg "Aes.expand: key must be 16 bytes";
  let rk = Bytes.create schedule_size in
  if hardware then aesni_expand key 0 rk else tt_expand_into rk key ~off:0;
  rk

let of_secret = expand
let copy : key -> key = Bytes.copy

(** [rekey k key ~off] re-expands the 16-byte secret at [key+off] into
    [k]'s existing schedule. This is how the router derives the
    per-reservation σ key without allocating (DESIGN.md §8). *)
(* hot-path *)
let rekey (k : key) (key : bytes) ~(off : int) =
  check_span "Aes.rekey: need 16 bytes" key off;
  if hardware then aesni_expand key off k else tt_expand_into k key ~off

(** [encrypt_block key ~src ~src_off ~dst ~dst_off] encrypts the
    16-byte block at [src+src_off] into [dst+dst_off]; [src] and [dst]
    may alias. *)
(* hot-path *)
let encrypt_block (rk : key) ~(src : bytes) ~src_off ~(dst : bytes) ~dst_off =
  check_span "Aes.encrypt_block: need 16 bytes" src src_off;
  check_span "Aes.encrypt_block: need 16 bytes" dst dst_off;
  if hardware then aesni_encrypt rk src src_off dst dst_off
  else tt_encrypt_block rk ~src ~src_off ~dst ~dst_off

(** Convenience: encrypt one standalone 16-byte block. *)
let encrypt (k : key) (block : bytes) : bytes =
  if Bytes.length block <> 16 then invalid_arg "Aes.encrypt: block must be 16 bytes";
  let out = Bytes.create 16 in
  encrypt_block k ~src:block ~src_off:0 ~dst:out ~dst_off:0;
  out

module Ttable = struct
  let rekey (k : key) (key : bytes) ~(off : int) =
    check_span "Aes.rekey: need 16 bytes" key off;
    tt_expand_into k key ~off

  let encrypt_block (rk : key) ~(src : bytes) ~src_off ~(dst : bytes) ~dst_off =
    check_span "Aes.encrypt_block: need 16 bytes" src src_off;
    check_span "Aes.encrypt_block: need 16 bytes" dst dst_off;
    tt_encrypt_block rk ~src ~src_off ~dst ~dst_off
end

let schedule : key -> string = Bytes.to_string
