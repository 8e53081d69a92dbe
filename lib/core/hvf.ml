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

(** Derive an AS's hop-MAC key from its DRKey secret value, so a
    single per-epoch secret backs both subsystems ("derived on the fly
    from a single AS-specific secret value", §3.4). *)
let as_secret_of_material (material : bytes) : as_secret = Crypto.Cmac.of_secret material

(* MAC input for Eqs. (3) and (4): ResInfo ‖ [EERInfo ‖] In ‖ Eg. *)
let hop_mac_input ~(res_info : Packet.res_info) ~(eer_info : Packet.eer_info option)
    ~(ingress : Ids.iface) ~(egress : Ids.iface) : bytes =
  let eer_len = match eer_info with Some _ -> Packet.eer_info_len | None -> 0 in
  let b = Bytes.create (Packet.res_info_len + eer_len + 8) in
  Bytes.blit (Packet.res_info_to_bytes res_info) 0 b 0 Packet.res_info_len;
  (match eer_info with
  | Some e -> Bytes.blit (Packet.eer_info_to_bytes e) 0 b Packet.res_info_len eer_len
  | None -> ());
  let off = Packet.res_info_len + eer_len in
  Bytes.set_int32_be b off (Int32.of_int ingress);
  Bytes.set_int32_be b (off + 4) (Int32.of_int egress);
  b

(** Eq. (3): the static SegR token, truncated to ℓ_hvf bytes. *)
let seg_token (k : as_secret) ~(res_info : Packet.res_info) ~(hop : Path.hop) : bytes =
  Crypto.Cmac.digest_trunc k
    (hop_mac_input ~res_info ~eer_info:None ~ingress:hop.ingress ~egress:hop.egress)
    ~len:Packet.hvf_len

(** Eq. (4): the full-length hop authenticator σ_i for an EER. *)
let hop_auth (k : as_secret) ~(res_info : Packet.res_info)
    ~(eer_info : Packet.eer_info) ~(hop : Path.hop) : bytes =
  Crypto.Cmac.digest k
    (hop_mac_input ~res_info ~eer_info:(Some eer_info) ~ingress:hop.ingress
       ~egress:hop.egress)

type sigma = Crypto.Cmac.key
(** A hop authenticator prepared for per-packet use: σ_i expanded into
    a CMAC key. The gateway does this once per reservation; the router
    re-derives it per packet. *)

let sigma_of_bytes (s : bytes) : sigma = Crypto.Cmac.of_secret s

(** Eq. (6): the per-packet hop validation field
    [MAC_{σ_i}(Ts ‖ PktSize)[0:ℓ_hvf]]. *)
let eer_hvf (s : sigma) ~(ts : Timebase.Ts.t) ~(pkt_size : int) : bytes =
  let b = Bytes.create 12 in
  Bytes.set_int64_be b 0 (Int64.of_int (Timebase.Ts.to_int ts));
  Bytes.set_int32_be b 8 (Int32.of_int pkt_size);
  Crypto.Cmac.digest_trunc s b ~len:Packet.hvf_len

(* -- Allocation-free variants over a Packet.View (DESIGN.md §8) -- *)

type scratch = {
  mac_input : bytes;
      (* 48 bytes: ResInfo ‖ [EERInfo ‖] In ‖ Eg, the Eq. (3)/(4) input *)
  ts_size : bytes; (* 12 bytes: Ts ‖ PktSize, the Eq. (6) input *)
  tag : bytes; (* 16 bytes: σ_i, then recomputed tokens/HVFs *)
  sigma : sigma; (* re-keyed in place with σ_i per packet *)
}
(** Per-consumer working buffers for the [_into] pipeline. A router
    owns exactly one; nothing in here is secret state beyond the
    transient values of the packet in flight. *)

let scratch () : scratch =
  {
    mac_input = Bytes.create (Packet.res_info_len + Packet.eer_info_len + 8);
    ts_size = Bytes.create 12;
    tag = Bytes.create Crypto.Cmac.mac_size;
    sigma = Crypto.Cmac.of_secret (Bytes.make 16 '\000');
  }

(* Assemble the Eq. (3)/(4) MAC input from the wire: ResInfo and
   EERInfo are contiguous in the packet, and the In ‖ Eg tail is bytes
   8..16 of the hop entry, already in canonical encoding — two blits,
   no per-field re-encoding. Returns the input length. *)
(* hot-path *)
let fill_hop_mac_input (scr : scratch) (v : Packet.View.t) ~(hop : int)
    ~(with_eer : bool) : int =
  let b = Packet.View.buffer v in
  let n =
    if with_eer then Packet.res_info_len + Packet.eer_info_len
    else Packet.res_info_len
  in
  Bytes.blit b (Packet.View.res_off v) scr.mac_input 0 n;
  Bytes.blit b (Packet.View.hop_off v hop + 8) scr.mac_input n 8;
  n + 8

(** Eq. (3) into caller scratch: write the ℓ_hvf-byte SegR token for
    hop [hop] of the viewed packet at [dst+dst_off]. *)
(* hot-path *)
let seg_token_into (k : as_secret) (scr : scratch) (v : Packet.View.t)
    ~(hop : int) ~(dst : bytes) ~(dst_off : int) =
  let len = fill_hop_mac_input scr v ~hop ~with_eer:false in
  Crypto.Cmac.digest_trunc_into k scr.mac_input ~off:0 ~len ~dst ~dst_off
    ~tag_len:Packet.hvf_len

(** Eq. (4) into caller scratch: write the 16-byte hop authenticator
    σ_i for hop [hop] of the viewed EER packet at [dst+dst_off]. *)
(* hot-path *)
let hop_auth_into (k : as_secret) (scr : scratch) (v : Packet.View.t)
    ~(hop : int) ~(dst : bytes) ~(dst_off : int) =
  let len = fill_hop_mac_input scr v ~hop ~with_eer:true in
  Crypto.Cmac.digest_into k scr.mac_input ~off:0 ~len ~dst ~dst_off

(** Eq. (6) into caller scratch: write the ℓ_hvf-byte per-packet HVF
    [MAC_σ(Ts ‖ PktSize)[0:ℓ_hvf]] at [dst+dst_off]. *)
(* hot-path *)
let eer_hvf_into (s : sigma) (scr : scratch) ~(ts : Timebase.Ts.t)
    ~(pkt_size : int) ~(dst : bytes) ~(dst_off : int) =
  Packet.Wire.put64 scr.ts_size 0 (Timebase.Ts.to_int ts);
  Packet.Wire.put32 scr.ts_size 8 pkt_size;
  Crypto.Cmac.digest_trunc_into s scr.ts_size ~off:0 ~len:12 ~dst ~dst_off
    ~tag_len:Packet.hvf_len

(** Constant-time equality of two ℓ_hvf-byte spans. *)
(* hot-path *)
let equal_hvf_at (a : bytes) ~(a_off : int) (b : bytes) ~(b_off : int) : bool =
  a_off >= 0
  && b_off >= 0
  && a_off + Packet.hvf_len <= Bytes.length a
  && b_off + Packet.hvf_len <= Bytes.length b
  &&
  let acc = ref 0 in
  for i = 0 to Packet.hvf_len - 1 do
    acc :=
      !acc
      lor (Char.code (Bytes.get a (a_off + i))
          lxor Char.code (Bytes.get b (b_off + i)))
  done;
  !acc = 0

(** Full Eq. (3) check on the wire: recompute hop [hop]'s SegR token
    and compare it against the packet's own HVF, in constant time and
    without allocating. *)
(* hot-path *)
let seg_check (k : as_secret) (scr : scratch) (v : Packet.View.t) ~(hop : int) :
    bool =
  seg_token_into k scr v ~hop ~dst:scr.tag ~dst_off:0;
  equal_hvf_at scr.tag ~a_off:0 (Packet.View.buffer v)
    ~b_off:(Packet.View.hvf_off v hop)

(** Full Eq. (4) → Eq. (6) check on the wire: re-derive σ_i, re-key the
    scratch CMAC key with it in place, recompute the per-packet HVF for
    [pkt_size], and compare — the stateless router's whole EER
    validation, with zero allocation. *)
(* hot-path *)
let eer_check (k : as_secret) (scr : scratch) (v : Packet.View.t) ~(hop : int)
    ~(pkt_size : int) : bool =
  hop_auth_into k scr v ~hop ~dst:scr.tag ~dst_off:0;
  Crypto.Cmac.rekey scr.sigma scr.tag ~off:0;
  eer_hvf_into scr.sigma scr ~ts:(Packet.View.ts v) ~pkt_size ~dst:scr.tag
    ~dst_off:0;
  equal_hvf_at scr.tag ~a_off:0 (Packet.View.buffer v)
    ~b_off:(Packet.View.hvf_off v hop)

(* -- Eq. (5): AEAD transport of σ_i back to the source AS -- *)

(** [seal_sigma ~key ~res_key sigma_bytes] protects σ_i for the trip
    back to the source AS, keyed with [K_{AS_i→AS_0}] material. The
    nonce binds the reservation key so σ values cannot be replayed
    across reservations; associated data binds it too. *)
let seal_sigma ~(aead : Crypto.Aead.key) ~(res_key : Ids.res_key) ~(version : int)
    (sigma_bytes : bytes) : bytes =
  let nonce = Bytes.make Crypto.Aead.nonce_size '\000' in
  Bytes.blit (Ids.asn_to_bytes res_key.src_as) 0 nonce 0 8;
  Bytes.set_int32_be nonce 8 (Int32.of_int res_key.res_id);
  Bytes.set_int32_be nonce 12 (Int32.of_int version);
  Crypto.Aead.seal aead ~nonce ~ad:(Bytes.copy nonce) sigma_bytes

let open_sigma ~(aead : Crypto.Aead.key) ~(res_key : Ids.res_key) ~(version : int)
    (sealed : bytes) : bytes option =
  let nonce = Bytes.make Crypto.Aead.nonce_size '\000' in
  Bytes.blit (Ids.asn_to_bytes res_key.src_as) 0 nonce 0 8;
  Bytes.set_int32_be nonce 8 (Int32.of_int res_key.res_id);
  Bytes.set_int32_be nonce 12 (Int32.of_int version);
  Crypto.Aead.open_ aead ~nonce ~ad:(Bytes.copy nonce) sealed
