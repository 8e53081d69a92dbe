(** Tests for the IntServ- and DiffServ-style comparators, including
    the DiffServ security failure that motivates Colibri (§1, §8).
    IntServ runs through its admission backend; DiffServ's per-hop
    class scheduling is a strict-priority {!Net.Link}. *)

open Colibri_types

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps

(* ---------- IntServ ---------- *)

let src = Ids.asn ~isd:1 ~num:1

let intserv () =
  Backends.Intserv_backend.factory.make ~capacity:(fun _ -> gbps 1.) ~share:0.8 ()

let admit b ~res_id ~bw ~exp_time ~now =
  Backends.Backend_intf.admit_seg b ~now
    ~req:
      {
        key = { src_as = src; res_id };
        version = 1;
        src;
        ingress = 0;
        egress = 1;
        demand = bw;
        min_bw = Bandwidth.zero;
        exp_time;
      }

let intserv_admission () =
  let b = intserv () in
  (* 0.8 Gbps reservable: eight 100 Mbps flows fit, the ninth not. *)
  for i = 1 to 8 do
    match admit b ~res_id:i ~bw:(mbps 100.) ~exp_time:60. ~now:0. with
    | Granted _ -> ()
    | Denied _ -> Alcotest.failf "flow %d should fit" i
  done;
  (match admit b ~res_id:9 ~bw:(mbps 100.) ~exp_time:60. ~now:0. with
  | Denied _ -> ()
  | Granted _ -> Alcotest.fail "over-admission");
  Alcotest.(check int) "per-flow state grows" 8 (Backends.Backend_intf.seg_count b)

let intserv_soft_state_expiry () =
  let b = intserv () in
  ignore (admit b ~res_id:1 ~bw:(mbps 500.) ~exp_time:30. ~now:0.);
  (* After expiry the next admission sweeps the soft state. *)
  match admit b ~res_id:2 ~bw:(mbps 700.) ~exp_time:90. ~now:31. with
  | Granted _ ->
      Alcotest.(check int) "old state swept" 1 (Backends.Backend_intf.seg_count b)
  | Denied _ -> Alcotest.fail "expired flow still booked"

(* ---------- DiffServ ---------- *)

let diffserv_fails_under_marking_attack () =
  (* An attacker marks its flood with the same premium class as the
     honest flow: the honest flow collapses — no admission, no
     authentication (§8: DiffServ "does not provide any
     guarantees"). *)
  let e = Net.Engine.create () in
  let honest_delivered = ref 0 in
  let port =
    Net.Link.create ~engine:e ~capacity:(mbps 8.) ~scheduler:Net.Link.Strict_priority
      ~queue_limit_bytes:20_000
      ~deliver:(fun (p : bool Net.Link.packet) ->
        if p.payload then honest_delivered := !honest_delivered + p.bytes)
      ()
  in
  let feed ~honest rate =
    let src =
      Net.Source.create ~engine:e ~rate ~packet_bytes:1000 ~emit:(fun bytes ->
          Net.Link.send port ~bytes ~cls:Net.Traffic_class.Colibri_data honest)
    in
    Net.Source.start src;
    src
  in
  let honest = feed ~honest:true (mbps 2.) in
  (* 40 Mbps attack in the same class. *)
  let attacker = feed ~honest:false (mbps 40.) in
  Net.Engine.run e ~until:2.;
  Net.Source.stop honest;
  Net.Source.stop attacker;
  let honest_rate = 8. *. float_of_int !honest_delivered /. 2. in
  Alcotest.(check bool)
    (Printf.sprintf "honest premium flow degraded to %.2f Mbps" (honest_rate /. 1e6))
    true
    (honest_rate < 1.5e6)

let suite =
  [
    Alcotest.test_case "IntServ: admission and state growth" `Quick intserv_admission;
    Alcotest.test_case "IntServ: soft-state expiry" `Quick intserv_soft_state_expiry;
    Alcotest.test_case "DiffServ: fails under marking attack" `Quick
      diffserv_fails_under_marking_attack;
  ]
