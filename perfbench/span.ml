(* Spans of the traced run, recorded from the benchmark's side of each
   layer boundary and kept in memory until the run ends.

   Every span carries the id of the exchange it belongs to: the client
   loop sets [current] before it calls the monitor, and the backend and
   journal-hook wrappers the monitor calls back into stamp their spans
   with it.  Batch spans (one per [Shard.handle_all]) carry the batch
   number instead. *)

type kind = Exchange | Forward | Observe | Journal_pre | Journal_barrier | Batch

let kind_name = function
  | Exchange -> "exchange"
  | Forward -> "forward"
  | Observe -> "observe"
  | Journal_pre -> "journal_pre"
  | Journal_barrier -> "journal_barrier"
  | Batch -> "batch"

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type t = {
  mutable len : int;
  mutable kinds : kind array;
  mutable ids : int array;
  mutable starts : float array;
  mutable stops : float array;
  mutable current : int;
}

let create () =
  { len = 0;
    kinds = Array.make 1024 Exchange;
    ids = Array.make 1024 0;
    starts = Array.make 1024 0.;
    stops = Array.make 1024 0.;
    current = 0
  }

let grow t =
  let n = 2 * Array.length t.ids in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.kinds <- extend t.kinds Exchange;
  t.ids <- extend t.ids 0;
  t.starts <- extend t.starts 0.;
  t.stops <- extend t.stops 0.

let record_id t kind id start stop =
  if t.len = Array.length t.ids then grow t;
  t.kinds.(t.len) <- kind;
  t.ids.(t.len) <- id;
  t.starts.(t.len) <- start;
  t.stops.(t.len) <- stop;
  t.len <- t.len + 1

let record t kind start stop = record_id t kind t.current start stop

(* [timed tr kind f] runs [f], recording a span when tracing is on. *)
let timed tr kind f =
  match tr with
  | None -> f ()
  | Some t ->
    let start = now_ns () in
    let r = f () in
    record t kind start (now_ns ());
    r

(* Per-kind totals: span count and summed duration (ns). *)
type totals = { count : int array; ns : float array }

let index = function
  | Exchange -> 0
  | Forward -> 1
  | Observe -> 2
  | Journal_pre -> 3
  | Journal_barrier -> 4
  | Batch -> 5

let empty_totals () = { count = Array.make 6 0; ns = Array.make 6 0. }

let add_to totals t =
  for i = 0 to t.len - 1 do
    let k = index t.kinds.(i) in
    totals.count.(k) <- totals.count.(k) + 1;
    totals.ns.(k) <- totals.ns.(k) +. (t.stops.(i) -. t.starts.(i))
  done

let merge into from =
  Array.iteri (fun i c -> into.count.(i) <- into.count.(i) + c) from.count;
  Array.iteri (fun i ns -> into.ns.(i) <- into.ns.(i) +. ns) from.ns

let count totals kind = totals.count.(index kind)
let ns totals kind = totals.ns.(index kind)

(* An exchange's self time is its span minus the backend and journal
   spans nested inside it; those never overlap one another, so the
   subtraction is exact. *)
let exchange_self_ns totals =
  ns totals Exchange
  -. List.fold_left
       (fun acc k -> acc +. ns totals k)
       0. [ Forward; Observe; Journal_pre; Journal_barrier ]

let write t path =
  let oc = open_out path in
  output_string oc "id,kind,start_ns,end_ns\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d,%s,%.0f,%.0f\n" t.ids.(i) (kind_name t.kinds.(i))
      t.starts.(i) t.stops.(i)
  done;
  close_out oc
