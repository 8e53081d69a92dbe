(** Hop authenticators and hop validation fields (§4.5, Eqs. (3)–(6)).

    Every on-path AS [i] holds a single secret key [K_i] from which all
    per-packet checks derive — the property that keeps border routers
    stateless:

    - Segment reservations carry a static 4-byte token
      [V_i = MAC_{K_i}(ResInfo ‖ (In_i, Eg_i))[0:4]] (Eq. (3)).
    - End-to-end reservations use a two-step scheme: at setup, AS [i]
      computes the hop authenticator
      [σ_i = MAC_{K_i}(ResInfo ‖ EERInfo ‖ (In_i, Eg_i))] (Eq. (4))
      and returns it to the source AS under AEAD (Eq. (5)); per data
      packet the gateway (and, recomputing σ_i on the fly, the router)
      derives [V_i = MAC_{σ_i}(Ts ‖ PktSize)[0:4]] (Eq. (6)).

    Including [SrcAS ‖ ResId] in the MAC'd ResInfo makes tokens
    globally bound to their reservation, which is why no chaining of
    hop fields is needed to prevent path splicing (§4.5). *)

open Colibri_types

type as_secret = Crypto.Cmac.key
(** [K_i]: the AS-specific secret used for reservation tokens. *)

val as_secret_of_material : bytes -> as_secret
(** Derive an AS's hop-MAC key from 16 bytes of secret material
    (typically a DRKey protocol key, so a single per-epoch secret
    backs both subsystems). *)

val hop_mac_input :
  res_info:Packet.res_info ->
  eer_info:Packet.eer_info option ->
  ingress:Ids.iface ->
  egress:Ids.iface ->
  bytes
(** The canonical MAC input of Eqs. (3) and (4):
    [ResInfo ‖ [EERInfo ‖] In ‖ Eg]. *)

val seg_token : as_secret -> res_info:Packet.res_info -> hop:Path.hop -> bytes
(** Eq. (3): the static SegR token, truncated to {!Packet.hvf_len}
    bytes. *)

val hop_auth :
  as_secret -> res_info:Packet.res_info -> eer_info:Packet.eer_info -> hop:Path.hop -> bytes
(** Eq. (4): the full-length (16-byte) hop authenticator σ_i for an
    EER. *)

type sigma = Crypto.Cmac.key
(** A hop authenticator prepared for per-packet use: σ_i expanded into
    a CMAC key. The gateway does this once per reservation version;
    the router re-derives it per packet. *)

val sigma_of_bytes : bytes -> sigma

val eer_hvf : sigma -> ts:Timebase.Ts.t -> pkt_size:int -> bytes
(** Eq. (6): the per-packet hop validation field
    [MAC_{σ_i}(Ts ‖ PktSize)[0:ℓ_hvf]]. Allocating: the gateway writes
    it with {!eer_hvf_into}, and tests check that output against this
    reference. *)

(** {1 Allocation-free variants over a [Packet.View] (DESIGN.md §8)} *)

type scratch
(** Per-consumer working buffers (MAC input, Ts‖PktSize block, tag
    block, and a re-keyable σ key) for the [_into] pipeline. A router
    owns exactly one; never share one across domains. *)

val scratch : unit -> scratch

val seg_token_into :
  as_secret -> scratch -> Packet.View.t -> hop:int -> dst:bytes -> dst_off:int -> unit
(** Eq. (3): write hop [hop]'s ℓ_hvf-byte SegR token at [dst+dst_off]. *)

val hop_auth_into :
  as_secret -> scratch -> Packet.View.t -> hop:int -> dst:bytes -> dst_off:int -> unit
(** Eq. (4): write the 16-byte σ_i for hop [hop] of the viewed EER
    packet at [dst+dst_off]. *)

val eer_hvf_into :
  sigma -> scratch -> ts:Timebase.Ts.t -> pkt_size:int -> dst:bytes -> dst_off:int -> unit
(** Eq. (6): write the ℓ_hvf-byte per-packet HVF at [dst+dst_off]. *)

val equal_hvf_at : bytes -> a_off:int -> bytes -> b_off:int -> bool
(** Constant-time equality of two ℓ_hvf-byte spans. *)

val seg_check : as_secret -> scratch -> Packet.View.t -> hop:int -> bool
(** Recompute hop [hop]'s Eq. (3) token and compare it against the
    packet's own HVF — allocation-free. *)

val eer_check : as_secret -> scratch -> Packet.View.t -> hop:int -> pkt_size:int -> bool
(** The stateless router's whole EER validation (Eq. (4) → Eq. (6)):
    re-derive σ_i, re-key the scratch key in place, recompute the HVF
    for [pkt_size], compare — allocation-free. *)

(** {1 Eq. (5): AEAD transport of σ_i back to the source AS} *)

val seal_sigma :
  aead:Crypto.Aead.key -> res_key:Ids.res_key -> version:int -> bytes -> bytes
(** Protect σ_i for the trip back to the source AS, keyed with
    [K_{AS_i→AS_0}] material. The nonce and associated data bind the
    reservation key and version, so σ values cannot be replayed across
    reservations. *)

val open_sigma :
  aead:Crypto.Aead.key -> res_key:Ids.res_key -> version:int -> bytes -> bytes option
(** Inverse of {!seal_sigma}; [None] when authentication fails or the
    binding does not match. *)
