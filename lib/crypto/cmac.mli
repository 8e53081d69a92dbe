(** AES-CMAC (RFC 4493 / NIST SP 800-38B).

    CMAC over AES-128 is the message-authentication primitive used
    everywhere in Colibri: the DRKey pseudo-random function (Eq. (1)),
    the segment-reservation tokens (Eq. (3)), the hop authenticators
    (Eq. (4)), and the per-packet hop validation fields (Eq. (6)). *)

type key
(** AES schedule + subkeys + the digest loop's working blocks. Because
    the working blocks are part of the key, span-based digests are
    allocation-free — and a [key] must not be shared across domains. *)

val of_secret : bytes -> key
(** Derive the CMAC subkeys from a 16-byte secret. *)

val of_aes_key : Aes.key -> key

val copy : key -> key
(** The same key with its own schedule, subkeys and working blocks —
    what a second domain needs before it may use the key. *)

val rekey : key -> bytes -> off:int -> unit
(** [rekey k secret ~off] re-keys [k] in place with the 16-byte secret
    at [secret+off], recomputing the AES schedule and both subkeys into
    the existing buffers with zero allocation. *)

val mac_size : int
(** 16 bytes. *)

val digest : key -> bytes -> bytes
(** The full 16-byte CMAC of a message of any length. *)

val digest_trunc : key -> bytes -> len:int -> bytes
(** First [len] (1–16) bytes of the CMAC; Colibri truncates hop
    validation fields to ℓ_hvf = 4 bytes. *)

val digest_into : key -> bytes -> off:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** [digest_into k msg ~off ~len ~dst ~dst_off] writes the 16-byte CMAC
    of the span [msg+off, msg+off+len) into [dst+dst_off] without
    allocating. *)

val digest_trunc_into :
  key -> bytes -> off:int -> len:int -> dst:bytes -> dst_off:int -> tag_len:int -> unit
(** {!digest_into} truncated to the first [tag_len] (1–16) bytes. *)

val verify : key -> bytes -> tag:bytes -> bool
(** Constant-time comparison against a (possibly truncated) tag. *)

val verify_at :
  key -> bytes -> off:int -> len:int -> tag:bytes -> tag_off:int -> tag_len:int -> bool
(** Constant-time comparison of the first [tag_len] bytes of the CMAC of
    the span [msg+off, msg+off+len) against the bytes at [tag+tag_off],
    without allocating. *)
