(** Adversarial acceptance scenarios, run under @attack with fixed
    seeds (ISSUE 10, §5.1 adversary model).

    Per seed, the full {!Attack.Scenario.run_suite} is executed against
    all four admission backends and each report is asserted against the
    paper's claims:

    - {b exhaustion}: N-Tube-style enforcing backends keep the honest
      ASes' share of the contested trunk bounded below and never
      preempt existing grants; DiffServ visibly fails the same bound.
    - {b overuse}: every paying-R-sending-kR bot is flagged within one
      OFD window, quarantined by the blocklist, and denied future
      reservations; honest deliveries stay intact.
    - {b storm}: crash/flap-synchronized renewal storms stay within
      the retry budget — control messages ≤ requests × budget ×
      per-attempt bound — and nothing leaks.

    Finally the whole suite is re-run from scratch and its digest must
    be byte-identical (replay determinism, like @chaos).

    Usage: [attack_main SEED]. Exits non-zero on the first violated
    invariant. *)

let fail fmt =
  Fmt.kstr (fun s -> prerr_endline ("ATTACK FAIL: " ^ s); exit 1) fmt

(* ---------------- (a) admission exhaustion ------------------------ *)

let check_exhaustion (r : Attack.Scenario.exhaustion_report) =
  let b = r.xh_backend in
  if r.xh_bot_seg_attempts < 200 then
    fail "exhaustion/%s: only %d bot SegR attempts (spam too weak)" b
      r.xh_bot_seg_attempts;
  if not r.xh_honest_preserved then
    fail "exhaustion/%s: an honest grant shrank or vanished under spam" b;
  if r.xh_bound_enforced then begin
    (* Enforcing backends: the honest share of the contested trunk
       stays bounded below, and promises never exceed the share. *)
    if r.xh_honest_share < 0.35 then
      fail "exhaustion/%s: honest share %.3f < 0.35 despite enforcement" b
        r.xh_honest_share;
    if not r.xh_capacity_respected then
      fail "exhaustion/%s: promised %.0f bps > share %.0f bps" b r.xh_total_bps
        r.xh_share_bps
  end
  else begin
    (* DiffServ has no admission signalling: it must visibly fail the
       fairness bound — oversubscribed trunk, diluted honest share. *)
    if r.xh_capacity_respected then
      fail "exhaustion/%s: expected oversubscription, promised %.0f <= %.0f" b
        r.xh_total_bps r.xh_share_bps;
    if r.xh_honest_share >= 0.35 then
      fail "exhaustion/%s: honest share %.3f not diluted without admission" b
        r.xh_honest_share
  end;
  Printf.printf
    "  exhaustion/%s: honest share %.3f (%d/%d bot SegRs admitted)\n%!" b
    r.xh_honest_share r.xh_bot_seg_granted r.xh_bot_seg_attempts

(* ---------------- (b) data-plane overuse -------------------------- *)

let check_overuse (r : Attack.Scenario.overuse_report) =
  let b = r.ou_backend in
  if r.ou_flagged <> r.ou_bots then
    fail "overuse/%s: only %d/%d overusers escalated to policing" b
      r.ou_flagged r.ou_bots;
  if r.ou_detection_windows > 1.0 then
    fail "overuse/%s: detection took %.2f OFD windows (> 1)" b
      r.ou_detection_windows;
  if r.ou_blocked <> r.ou_bots then
    fail "overuse/%s: only %d/%d overusers blocklisted" b r.ou_blocked
      r.ou_bots;
  if r.ou_denied <> r.ou_bots then
    fail "overuse/%s: only %d/%d overusers denied at the CServ" b r.ou_denied
      r.ou_bots;
  if r.ou_bot_policed = 0 || r.ou_bot_blocked_drops = 0 then
    fail "overuse/%s: enforcement chain idle (policed=%d blocked=%d)" b
      r.ou_bot_policed r.ou_bot_blocked_drops;
  if r.ou_honest_sent = 0 then fail "overuse/%s: honest sender idle" b;
  if r.ou_honest_delivered * 100 < r.ou_honest_sent * 99 then
    fail "overuse/%s: honest delivery %d/%d < 99%%" b r.ou_honest_delivered
      r.ou_honest_sent;
  Printf.printf
    "  overuse/%s: %d/%d bots flagged in %.2f windows, honest %d/%d delivered\n%!"
    b r.ou_flagged r.ou_bots r.ou_detection_windows r.ou_honest_delivered
    r.ou_honest_sent

(* ---------------- (c) renewal-storm amplification ----------------- *)

let check_storm (r : Attack.Scenario.storm_report) =
  let b = r.st_backend in
  if not r.st_within_budget then
    fail "storm/%s: %d control msgs > %d requests x %d budget x %d bound" b
      r.st_sent r.st_requests r.st_max_attempts r.st_attempt_msg_bound;
  if r.st_attempts > r.st_requests * r.st_max_attempts then
    fail "storm/%s: %d attempts > %d requests x budget %d" b r.st_attempts
      r.st_requests r.st_max_attempts;
  if r.st_amplification > 1.5 then
    fail "storm/%s: amplification %.2fx > 1.5x" b r.st_amplification;
  if not r.st_renewals_alive then
    fail "storm/%s: a managed SegR died during the storm" b;
  if not r.st_accounting_ok then fail "storm/%s: message accounting open" b;
  if r.st_audit_errors <> 0 then
    fail "storm/%s: %d admission audit errors (leaked state)" b
      r.st_audit_errors;
  if r.st_pending <> 0 then
    fail "storm/%s: %d requests still pending after drain" b r.st_pending;
  Printf.printf
    "  storm/%s: %.2fx amplification (%.1f vs %.1f msgs/req), budget held\n%!"
    b r.st_amplification r.st_storm_msgs_per_req r.st_clean_msgs_per_req

(* MD5 of each fixed seed's suite digest, recorded so that a change
   across commits is caught, not only a divergence between two runs in
   one process. Last re-recorded when the duplicate filter moved to a
   62-bit key: only the router_dup_filter_bits_set gauge changed. *)
let pinned_md5 =
  [
    (1, "2631ae3cd7628cbf0a14928facd2a81a");
    (2, "98a8704c089f5ea1834682d320b548dd");
    (3, "af8df19dcaf95939bbbd67a43f312c8f");
  ]

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1
  in
  Printf.printf "attack seed %d\n%!" seed;
  let s = Attack.Scenario.run_suite ~seed in
  List.iter check_exhaustion s.s_exhaustion;
  List.iter check_overuse s.s_overuse;
  List.iter check_storm s.s_storm;
  (* Replay determinism: the identical seed must reproduce the whole
     suite — every Obs snapshot included — byte for byte. *)
  let s2 = Attack.Scenario.run_suite ~seed in
  if not (String.equal s.s_digest s2.s_digest) then
    fail "replay: suite digests diverged for seed %d" seed;
  let md5 = Digest.to_hex (Digest.string s.s_digest) in
  (match List.assoc_opt seed pinned_md5 with
  | Some pinned when not (String.equal pinned md5) ->
      fail "replay: digest changed for seed %d: pinned %s, now %s" seed pinned md5
  | _ -> ());
  Printf.printf "  replay: byte-identical suite digest (%d bytes)\n%!"
    (String.length s.s_digest);
  Printf.printf "attack seed %d: all scenarios passed\n%!" seed
