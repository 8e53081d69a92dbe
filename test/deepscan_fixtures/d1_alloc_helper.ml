(* Deepscan fixture: allocating helpers that carry no hot-path marker
   of their own.  Nothing in this file is hot on its own: only the
   interprocedural closure (d1) follows the hot call from D1_router
   this far. *)

let alloc_payload (n : int) : bytes = Bytes.create n

let alloc_quiet (n : int) : bytes = (Bytes.create n [@colibri.allow "d1"])
