(* Deepscan fixture: hot roots whose only allocations happen inside a
   helper in another module (D1_alloc_helper). *)

(* hot-path *)
let forward (n : int) : bytes = D1_alloc_helper.alloc_payload n

(* hot-path *)
let forward_quiet (n : int) : bytes = D1_alloc_helper.alloc_quiet n

(* Neither marked nor called from a marked definition: d1 must stay
   silent on this allocation. *)
let cold_setup (n : int) : bytes = Bytes.create n
