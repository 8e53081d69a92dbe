(** DiffServ admission backend: class-based provisioning behind the
    {!Backend_intf.S} contract — the {e no-admission-control}
    counterpoint (§1, §8).

    DiffServ has no per-reservation signaling: sources mark packets
    with a class and every hop schedules by class. The wrapper
    therefore grants every request in full, pays {e zero} control
    messages, and merely accounts who promised what. Because nothing
    polices aggregate demand, the booked bandwidth on an egress may
    exceed the link — [capacity_bound_enforced = false], and the bench's
    [utilization] column shows the resulting oversubscription, which is
    exactly the failure mode reservation systems exist to remove. *)

module B : Backend_intf.S
(** [name = "diffserv"]. *)

val factory : Backend_intf.factory
