(** AES-128 block cipher (FIPS-197), encryption direction only.

    Colibri needs AES only as a pseudo-random permutation underneath
    CMAC (hop-validation-field MACs, DRKey PRF) and CTR-mode AEAD, all
    of which use the forward direction exclusively. On CPUs with AES-NI
    every block and key schedule runs on it, as in the paper; elsewhere
    a word-oriented T-table kernel takes over. The choice is made once,
    from CPUID, and is not configurable. Both kernels are validated
    against the FIPS-197 and SP 800-38A vectors and a byte-oriented
    reference in the test suite. *)

type key
(** An expanded key schedule (11 round keys, 176 bytes).
    {!encrypt_block} only reads it, but {!rekey} rewrites it in place,
    so a [key] value that is re-keyed must not be used from two domains
    concurrently; give each domain its own expansion. *)

val block_size : int
(** 16 bytes. *)

val expand : bytes -> key
(** Expand a 16-byte key. Raises [Invalid_argument] on other sizes. *)

val of_secret : bytes -> key
(** Alias of {!expand}. *)

val copy : key -> key
(** An independent schedule: a later {!rekey} of either leaves the
    other unchanged. *)

val encrypt_block : key -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit
(** Encrypt the 16-byte block at [src+src_off] into [dst+dst_off];
    [src] and [dst] may alias. Raises [Invalid_argument] if either span
    is short of 16 bytes. *)

val encrypt : key -> bytes -> bytes
(** Encrypt one standalone 16-byte block. *)

val rekey : key -> bytes -> off:int -> unit
(** [rekey k secret ~off] re-expands the 16-byte secret at
    [secret+off] into [k]'s existing schedule without allocating.
    Raises [Invalid_argument] if fewer than 16 bytes are available. *)

(** {2 Kernels}

    Exposed so the tests can run both kernels on any host. *)

val hardware : bool
(** [true] when this CPU has AES-NI and the functions above run on it;
    [false] when they run the {!Ttable} kernel. *)

(** The T-table kernel, with the contracts of {!rekey} and
    {!encrypt_block}: the only path on CPUs without AES-NI. *)
module Ttable : sig
  val rekey : key -> bytes -> off:int -> unit
  val encrypt_block : key -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit
end

val schedule : key -> string
(** The 176 schedule bytes: 11 round keys in FIPS-197 byte order. *)
