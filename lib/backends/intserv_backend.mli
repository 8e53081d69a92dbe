(** IntServ/RSVP admission backend: per-flow soft-state ports (one per
    egress interface) behind the {!Backend_intf.S} contract.

    Each reservation — SegR or EER alike, RSVP has only flows — becomes
    one per-flow soft-state record on its egress port. Admission is a
    deliberate O(#flows) scan of the port's flow list; the discipline is chained
    (PATH forward, RESV backward), so like the reference backend it
    pays two control messages per on-path AS per admission, but unlike
    it the admission cost grows with the number of installed
    reservations (§8, Table 1 — the contrast the bench's
    [setup_latency] column shows). All-or-nothing grants: RSVP does not
    negotiate a demand down, so a request that does not fit is denied
    with the current headroom as [available]. *)

module B : Backend_intf.S
(** [name = "intserv"]. *)

val factory : Backend_intf.factory
