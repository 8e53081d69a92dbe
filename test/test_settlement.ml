(** Tests for neighbor-to-neighbor settlement accounting (§9). *)

open Colibri_types

let gbps = Bandwidth.of_gbps
let asn n = Ids.asn ~isd:1 ~num:n
let key src id : Ids.res_key = { src_as = asn src; res_id = id }

let with_ledger () =
  let sim = Timebase.Sim_clock.create () in
  (sim, Settlement.create ~clock:(Timebase.Sim_clock.clock sim) (asn 1))

let committed_capacity_accrues () =
  let sim, ledger = with_ledger () in
  let neighbor = asn 2 in
  (* 2 Gbps committed for half an hour = 1 Gbps·h. *)
  Settlement.commitment_started ledger ~neighbor ~key:(key 9 1) ~version:1
    ~bw:(gbps 2.);
  Timebase.Sim_clock.advance sim 1800.;
  Settlement.commitment_ended ledger ~neighbor ~key:(key 9 1) ~version:1;
  match Settlement.preview ledger with
  | [ inv ] ->
      Alcotest.(check (float 1e-6)) "Gbps hours" 1.0 inv.committed_gbps_hours;
      Alcotest.(check (float 1e-6)) "amount at default price" 1.0 inv.amount
  | l -> Alcotest.failf "expected one invoice, got %d" (List.length l)

let open_commitments_accrue_in_preview () =
  let sim, ledger = with_ledger () in
  let neighbor = asn 2 in
  Settlement.commitment_started ledger ~neighbor ~key:(key 9 1) ~version:1
    ~bw:(gbps 1.);
  Timebase.Sim_clock.advance sim 3600.;
  (* Not ended: preview still accrues up to now. *)
  (match Settlement.preview ledger with
  | [ inv ] -> Alcotest.(check (float 1e-6)) "1 Gbps·h open" 1.0 inv.committed_gbps_hours
  | _ -> Alcotest.fail "expected one invoice");
  (* Another hour keeps accruing. *)
  Timebase.Sim_clock.advance sim 3600.;
  match Settlement.preview ledger with
  | [ inv ] -> Alcotest.(check (float 1e-6)) "2 Gbps·h" 2.0 inv.committed_gbps_hours
  | _ -> Alcotest.fail "expected one invoice"

let carried_volume_billed () =
  let _, ledger = with_ledger () in
  let neighbor = asn 2 in
  Settlement.carried ledger ~neighbor ~bytes:5_000_000_000;
  match Settlement.preview ledger with
  | [ inv ] ->
      Alcotest.(check (float 1e-6)) "5 GB" 5.0 inv.carried_gb;
      Alcotest.(check (float 1e-6)) "0.1/GB default" 0.5 inv.amount
  | _ -> Alcotest.fail "expected one invoice"

let contract_prices_apply () =
  let sim, ledger = with_ledger () in
  let neighbor = asn 2 in
  Settlement.set_contract ledger
    {
      neighbor;
      price_per_gbps_hour = 10.;
      price_per_gb = 2.;
      colibri_share = 0.5;
    };
  Settlement.commitment_started ledger ~neighbor ~key:(key 9 1) ~version:1
    ~bw:(gbps 1.);
  Timebase.Sim_clock.advance sim 3600.;
  Settlement.carried ledger ~neighbor ~bytes:1_000_000_000;
  match Settlement.preview ledger with
  | [ inv ] -> Alcotest.(check (float 1e-6)) "10·1 + 2·1" 12.0 inv.amount
  | _ -> Alcotest.fail "expected one invoice"

let close_period_resets () =
  let sim, ledger = with_ledger () in
  let neighbor = asn 2 in
  Settlement.commitment_started ledger ~neighbor ~key:(key 9 1) ~version:1
    ~bw:(gbps 1.);
  Settlement.carried ledger ~neighbor ~bytes:2_000_000_000;
  Timebase.Sim_clock.advance sim 3600.;
  let invoices = Settlement.close_period ledger in
  Alcotest.(check int) "one invoice" 1 (List.length invoices);
  Alcotest.(check (float 1e-6)) "billed" 1.2 (List.hd invoices).amount;
  (* New period: volume reset; the still-open commitment restarts. *)
  Timebase.Sim_clock.advance sim 1800.;
  match Settlement.preview ledger with
  | [ inv ] ->
      Alcotest.(check (float 1e-6)) "half hour in new period" 0.5
        inv.committed_gbps_hours;
      Alcotest.(check (float 1e-6)) "no carried volume yet" 0. inv.carried_gb
  | _ -> Alcotest.fail "expected one invoice"

let per_neighbor_isolation () =
  let sim, ledger = with_ledger () in
  Settlement.commitment_started ledger ~neighbor:(asn 2) ~key:(key 9 1) ~version:1
    ~bw:(gbps 1.);
  Settlement.commitment_started ledger ~neighbor:(asn 3) ~key:(key 9 2) ~version:1
    ~bw:(gbps 4.);
  Timebase.Sim_clock.advance sim 3600.;
  let invoices = Settlement.preview ledger in
  Alcotest.(check int) "two neighbors" 2 (List.length invoices);
  let find n = List.find (fun (i : Settlement.invoice) -> Ids.equal_asn i.neighbor (asn n)) invoices in
  Alcotest.(check (float 1e-6)) "neighbor 2" 1.0 (find 2).committed_gbps_hours;
  Alcotest.(check (float 1e-6)) "neighbor 3" 4.0 (find 3).committed_gbps_hours

let wiring_via_topology () =
  let topo = Colibri_topology.Topology_gen.linear ~n:2 ~capacity:(gbps 40.) in
  let sim = Timebase.Sim_clock.create () in
  let ledger = Settlement.create ~clock:(Timebase.Sim_clock.clock sim) (asn 1) in
  (* AS 1's interface 2 leads to AS 2: the commitment lands on AS 2's
     account. *)
  Settlement.on_segr_granted ledger ~topo ~egress:2 ~key:(key 9 1) ~version:1
    ~bw:(gbps 1.);
  Alcotest.(check int) "account opened for neighbor" 1
    (List.length (Settlement.neighbors ledger));
  Alcotest.(check bool) "it is AS 2" true
    (Ids.equal_asn (List.hd (Settlement.neighbors ledger)) (asn 2));
  (* Local egress (0) bills nobody. *)
  Settlement.on_segr_granted ledger ~topo ~egress:0 ~key:(key 9 2) ~version:1
    ~bw:(gbps 1.);
  Alcotest.(check int) "still one neighbor" 1 (List.length (Settlement.neighbors ledger))

let double_end_is_idempotent () =
  let sim, ledger = with_ledger () in
  let neighbor = asn 2 in
  Settlement.commitment_started ledger ~neighbor ~key:(key 9 1) ~version:1
    ~bw:(gbps 2.);
  Timebase.Sim_clock.advance sim 3600.;
  Settlement.commitment_ended ledger ~neighbor ~key:(key 9 1) ~version:1;
  Timebase.Sim_clock.advance sim 3600.;
  Settlement.commitment_ended ledger ~neighbor ~key:(key 9 1) ~version:1;
  match Settlement.preview ledger with
  | [ inv ] -> Alcotest.(check (float 1e-6)) "charged once" 2.0 inv.committed_gbps_hours
  | _ -> Alcotest.fail "expected one invoice"

let suite =
  [
    Alcotest.test_case "committed capacity accrues" `Quick committed_capacity_accrues;
    Alcotest.test_case "open commitments accrue in preview" `Quick open_commitments_accrue_in_preview;
    Alcotest.test_case "carried volume billed" `Quick carried_volume_billed;
    Alcotest.test_case "contract prices apply" `Quick contract_prices_apply;
    Alcotest.test_case "close_period resets" `Quick close_period_resets;
    Alcotest.test_case "per-neighbor isolation" `Quick per_neighbor_isolation;
    Alcotest.test_case "wiring via topology" `Quick wiring_via_topology;
    Alcotest.test_case "double end is idempotent" `Quick double_end_is_idempotent;
  ]
