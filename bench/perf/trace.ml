(** Spans recorded from the benchmark's side of each call into a layer.

    A span has an id (its index), a parent, a name, a hop index, start
    and end in monotonic nanoseconds, and the minor-heap words the
    domain allocated between start and end. Spans live in preallocated
    arrays; recording one reads the clock and the allocation counter
    twice and allocates nothing. Spans inside [lib/] are later work
    (ROADMAP items 1 and 4). *)

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())
let words () : int = int_of_float (Gc.minor_words ())

(* Span names, indexed by the [name] codes below. *)
let names =
  [|
    "intent";
    "deployment.lookup_eer_routes";
    "deployment.setup_eer_sync";
    "deployment.auto_renew_eer";
    "deployment.stop_renewal";
    "packet";
    "gateway.send_bytes";
    "router.process_bytes";
    "par.submit";
    "par.wait";
  |]

let intent = 0
let lookup = 1
let setup = 2
let auto_renew = 3
let stop_renewal = 4
let packet = 5
let send_bytes = 6
let process_bytes = 7
let submit = 8
let wait = 9

type t = {
  parent : int array;
  name : int array;
  hop : int array;
  t0 : int array;
  t1 : int array;
  w0 : int array;
  w1 : int array;
  mutable n : int;
  mutable cur : int; (* innermost open span, or -1 *)
  mutable on : bool;
}

let create (cap : int) : t =
  let a () = Array.make cap 0 in
  {
    parent = a ();
    name = a ();
    hop = a ();
    t0 = a ();
    t1 = a ();
    w0 = a ();
    w1 = a ();
    n = 0;
    cur = -1;
    on = false;
  }

(** A recorder that never records: the untraced runs use it. *)
let off = create 0

(** Open a span; [-1] when tracing is off or the arrays are full. *)
let enter (t : t) (name : int) ~(hop : int) : int =
  if (not t.on) || t.n >= Array.length t.parent then -1
  else begin
    let i = t.n in
    t.n <- i + 1;
    t.parent.(i) <- t.cur;
    t.name.(i) <- name;
    t.hop.(i) <- hop;
    t.w0.(i) <- words ();
    t.t0.(i) <- now_ns ();
    t.cur <- i;
    i
  end

let leave (t : t) (i : int) : unit =
  if i >= 0 then begin
    t.t1.(i) <- now_ns ();
    t.w1.(i) <- words ();
    t.cur <- t.parent.(i)
  end

(** Per-name statistics. Self time is a span's duration minus the part
    its children cover; self words likewise. *)
type stat = {
  count : int;
  self_p50 : float;
  self_mean : float;
  dur_p50 : float;
  words_mean : float;
}

(** Statistics over the spans with ids in the given [[lo, hi)] ranges
    (all spans by default); a range must hold whole root spans. *)
let summarize ?ranges (t : t) : (string * stat) list =
  let ranges = Option.value ranges ~default:[ (0, t.n) ] in
  let each f = List.iter (fun (lo, hi) -> for i = lo to hi - 1 do f i done) ranges in
  let child_ns = Array.make t.n 0 and child_w = Array.make t.n 0 in
  each (fun i ->
      let p = t.parent.(i) in
      if p >= 0 then begin
        child_ns.(p) <- child_ns.(p) + (t.t1.(i) - t.t0.(i));
        child_w.(p) <- child_w.(p) + (t.w1.(i) - t.w0.(i))
      end);
  let k = Array.length names in
  let self = Array.init k (fun _ -> Stats.buf ())
  and dur = Array.init k (fun _ -> Stats.buf ())
  and w = Array.make k 0 in
  each (fun i ->
      let nm = t.name.(i) in
      let d = t.t1.(i) - t.t0.(i) in
      Stats.push self.(nm) (float_of_int (d - child_ns.(i)));
      Stats.push dur.(nm) (float_of_int d);
      w.(nm) <- w.(nm) + (t.w1.(i) - t.w0.(i) - child_w.(i)));
  List.filter_map
    (fun nm ->
      let s = Stats.sorted self.(nm) in
      let count = Array.length s in
      if count = 0 then None
      else
        Some
          ( names.(nm),
            {
              count;
              self_p50 = Stats.percentile s 50.;
              self_mean = Array.fold_left ( +. ) 0. s /. float_of_int count;
              dur_p50 = Stats.percentile (Stats.sorted dur.(nm)) 50.;
              words_mean = float_of_int w.(nm) /. float_of_int count;
            } ))
    (List.init k Fun.id)

(** {1 Span files}

    Text, one span per line after [# key value] header lines:
    [parent name hop t0 t1 words]. *)

let write (t : t) ~(meta : (string * string) list) (path : string) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "# colibri_perf spans v1\n";
      List.iter (fun (k, v) -> Printf.fprintf oc "# %s %s\n" k v) meta;
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d %s %d %d %d %d\n" t.parent.(i) names.(t.name.(i))
          t.hop.(i) t.t0.(i) t.t1.(i)
          (t.w1.(i) - t.w0.(i))
      done)

let read (path : string) : t * (string * string) list =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let meta, spans = List.partition (fun l -> String.starts_with ~prefix:"#" l) lines in
  let meta =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | "#" :: k :: v -> Some (k, String.concat " " v)
        | _ -> None)
      meta
  in
  let t = create (List.length spans) in
  let code s =
    match Array.find_index (String.equal s) names with
    | Some i -> i
    | None -> failwith ("unknown span name " ^ s)
  in
  List.iter
    (fun l ->
      Scanf.sscanf l "%d %s %d %d %d %d" (fun p nm hop t0 t1 w ->
          let i = t.n in
          t.parent.(i) <- p;
          t.name.(i) <- code nm;
          t.hop.(i) <- hop;
          t.t0.(i) <- t0;
          t.t1.(i) <- t1;
          t.w0.(i) <- 0;
          t.w1.(i) <- w;
          t.n <- i + 1))
    spans;
  (t, meta)
