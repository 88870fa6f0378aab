module Monitor = Cm_monitor.Monitor
module Outcome = Cm_monitor.Outcome
module Crash = Cm_core.Crash

let rid_header = "X-Request-Id"

type make =
  journal_pre:(Monitor.pre_image -> unit) ->
  journal_barrier:(unit -> unit) ->
  crash:Crash.t option ->
  unit ->
  (Monitor.t, string list) result

type t = {
  journal : Journal.t;
  monitor : Monitor.t;
  crash : Crash.t option;
  batch : int;
  mutable next_seq : int;
  mutable current : int option;  (* seq of the in-flight exchange *)
  mutable unsynced_verdicts : int;
  verdict_frames : (string, int * int) Hashtbl.t;
      (* rid -> payload span of its latest Verdict frame on the device:
         the journal is the verdict store, this is only its index *)
}

let monitor t = t.monitor
let journal t = t.journal
let device t = Journal.device t.journal

let alloc t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let on_pre t image =
  (* Only journal a pre-image inside a journaled exchange; [None]
     happens when the inner monitor is driven directly (recovery's own
     resume included — its pre-image is already on the journal). *)
  match t.current with
  | None -> ()
  | Some seq ->
      Crash.at t.crash "journal.before-pre";
      Journal.append t.journal (Event.Pre { seq; image });
      Crash.at t.crash "journal.after-pre"

let barrier t =
  Crash.at t.crash "journal.before-sync";
  Journal.sync t.journal;
  t.unsynced_verdicts <- 0;
  Crash.at t.crash "journal.after-sync"

let make_instance ?(batch = 8) ?crash
    ?(verdict_frames = Hashtbl.create 64) device (make : make) =
  let journal = Journal.create device in
  let cell = ref None in
  let with_t f = match !cell with Some t -> f t | None -> () in
  match
    make
      ~journal_pre:(fun image -> with_t (fun t -> on_pre t image))
      ~journal_barrier:(fun () -> with_t barrier)
      ~crash ()
  with
  | Error es -> Error es
  | Ok monitor ->
      let t =
        {
          journal;
          monitor;
          crash;
          batch;
          next_seq = 1;
          current = None;
          unsynced_verdicts = 0;
          verdict_frames;
        }
      in
      cell := Some t;
      Ok t

let create ?batch ?crash device make = make_instance ?batch ?crash device make

let verdict_of ~seq ~rid (outcome : Outcome.t) =
  {
    Event.v_seq = seq;
    v_rid = rid;
    v_meth = Cm_http.Meth.to_string outcome.request.Cm_http.Request.meth;
    v_path = outcome.request.Cm_http.Request.path;
    v_status = outcome.response.Cm_http.Response.status;
    v_conformance = Outcome.conformance_to_string outcome.conformance;
    v_detail = outcome.detail;
    v_covered = outcome.covered_requirements;
    v_body = outcome.response.Cm_http.Response.body;
  }

let emit t ~seq ~rid outcome =
  let v = verdict_of ~seq ~rid outcome in
  Crash.at t.crash "journal.before-verdict";
  let off = Device.size (device t) + Record.header_length in
  Journal.append t.journal (Event.Verdict v);
  Hashtbl.replace t.verdict_frames rid (off, Device.size (device t) - off);
  t.unsynced_verdicts <- t.unsynced_verdicts + 1;
  if t.unsynced_verdicts >= t.batch then begin
    Journal.sync t.journal;
    t.unsynced_verdicts <- 0
  end;
  Crash.at t.crash "journal.after-verdict"

let handle t req =
  let seq = alloc t in
  let rid, req =
    match Cm_http.Headers.get rid_header req.Cm_http.Request.headers with
    | Some rid -> (rid, req)
    | None ->
        let rid = Printf.sprintf "jrn-%d" seq in
        ( rid,
          {
            req with
            Cm_http.Request.headers =
              Cm_http.Headers.replace rid_header rid
                req.Cm_http.Request.headers;
          } )
  in
  Crash.at t.crash "journal.before-request";
  Journal.append t.journal (Event.Request { seq; rid; req });
  Crash.at t.crash "journal.after-request";
  t.current <- Some seq;
  let outcome = Monitor.handle t.monitor req in
  emit t ~seq ~rid outcome;
  t.current <- None;
  outcome

let handle_response t req = (handle t req).Outcome.response

let mark t note =
  let seq = alloc t in
  Journal.append t.journal (Event.Mark { seq; note })

let sync t =
  Journal.sync t.journal;
  t.unsynced_verdicts <- 0

let verdicts t =
  Device.with_view (device t) @@ fun data len ->
  List.filter_map
    (fun (off, len) ->
      match Event.peek data ~off ~len with
      | Some (Event.Verdict_kind, _, _) -> (
          match Event.decode_at data ~off ~len with
          | Some (Event.Verdict v) -> Some v
          | Some (Event.Request _ | Event.Pre _ | Event.Mark _) | None -> None)
      | Some _ | None -> None)
    (fst (Record.spans ~len data))

let verdict_lines t = List.map Event.verdict_line (verdicts t)

let verdict_for_rid t rid =
  match Hashtbl.find_opt t.verdict_frames rid with
  | Some (off, len) when off + len <= Device.size (device t) -> (
      (* the rid check guards an index that outlived a crash of its
         device: a frame now at that offset may belong to another key *)
      match Event.decode (Device.sub (device t) ~off ~len) with
      | Some (Event.Verdict v) when String.equal v.Event.v_rid rid -> Some v
      | Some (Event.Request _ | Event.Pre _ | Event.Verdict _ | Event.Mark _)
      | None ->
          None)
  | Some _ | None -> None

type recovery = {
  events_scanned : int;
  discarded_bytes : int;
  decoded : int;
  resumed : int;
  rehandled : int;
}

(* A pending exchange: journaled request, no durable verdict. *)
type pending = {
  p_seq : int;
  p_rid : string;
  p_req : Cm_http.Request.t;
  p_image : Monitor.pre_image option;
}

(* The header pass and the decoding of pending exchanges read the
   device in place; everything they keep is decoded out of it before
   recovery writes to the device again. *)
let scan_pending device =
  Device.with_view device @@ fun data len ->
  let spans, framed = Record.spans ~len data in
  (* Classify every checksummed frame by its header alone.  The clean
     prefix ends at the first frame that fails its CRC or whose header
     does not peek.  A sequence number's Request, Pre and Verdict are
     appended in that order, so [open_frames] only ever holds the
     exchanges still in flight at the current frame. *)
  (* sized for one verdict per exchange of (usually) three frames, so
     the index never rehashes while it is built *)
  let verdict_frames = Hashtbl.create ((List.length spans / 3) + 1) in
  let open_frames = Hashtbl.create 8 in
  let max_seq = ref 0 and scanned = ref 0 in
  let rec classify = function
    | [] -> framed
    | (off, len) :: rest -> (
        match Event.peek data ~off ~len with
        | None -> off - Record.header_length
        | Some (kind, seq, rid) ->
            incr scanned;
            max_seq := max !max_seq seq;
            (match kind with
            | Event.Request_kind -> Hashtbl.replace open_frames seq (off, len, None)
            | Event.Pre_kind -> (
                match Hashtbl.find_opt open_frames seq with
                | Some (roff, rlen, _) ->
                    Hashtbl.replace open_frames seq (roff, rlen, Some (off, len))
                | None -> ())
            | Event.Verdict_kind ->
                Hashtbl.remove open_frames seq;
                Hashtbl.replace verdict_frames rid (off, len)
            | Event.Mark_kind -> ());
            classify rest)
  in
  let clean = classify spans in
  (* Decode only the requests without a durable verdict, and their
     pre-images.  By the barrier-before-every-forward invariant at most
     the last one can exist, but recovery handles any number soundly.
     A checksummed frame whose header peeks but whose body does not
     decode is not a torn write; recovery refuses rather than guess. *)
  let decoded = ref 0 in
  let decode off len =
    incr decoded;
    Event.decode_at data ~off ~len
  in
  let corrupt off =
    Error
      [
        Printf.sprintf "journal: record at byte %d has a header but no event"
          (off - Record.header_length);
      ]
  in
  let rec pending acc = function
    | [] -> Ok (List.rev acc)
    | (off, len, pre) :: rest -> (
        match decode off len with
        | Some (Event.Request { seq; rid; req }) -> (
            let p = { p_seq = seq; p_rid = rid; p_req = req; p_image = None } in
            match pre with
            | None -> pending (p :: acc) rest
            | Some (poff, plen) -> (
                match decode poff plen with
                | Some (Event.Pre { image; _ }) ->
                    pending ({ p with p_image = Some image } :: acc) rest
                | Some (Event.Request _ | Event.Verdict _ | Event.Mark _)
                | None ->
                    corrupt poff))
        | Some (Event.Pre _ | Event.Verdict _ | Event.Mark _) | None ->
            corrupt off)
  in
  let in_journal_order =
    Hashtbl.fold (fun _ frames acc -> frames :: acc) open_frames []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  Result.map
    (fun pending -> (pending, clean, verdict_frames, !max_seq, !scanned, !decoded))
    (pending [] in_journal_order)

let recover ?batch ?crash device make =
  match scan_pending device with
  | Error es -> Error es
  | Ok (pending, clean, verdict_frames, max_seq, scanned, decoded) -> (
      let discarded = Device.size device - clean in
      Journal.truncate_torn device clean;
      match make_instance ?batch ?crash ~verdict_frames device make with
      | Error es -> Error es
      | Ok t ->
          t.next_seq <- max_seq + 1;
          let resumed = ref 0 and rehandled = ref 0 in
          List.iter
            (fun p ->
              let outcome =
                match p.p_image with
                | Some image ->
                    incr resumed;
                    Monitor.resume t.monitor p.p_req image
                | None ->
                    (* Nothing durable was forwarded for this request
                       (no pre-image means no barrier ran after its
                       append), or it was uncontracted — either way a
                       fresh handle with the same rid is idempotent. *)
                    incr rehandled;
                    Monitor.handle t.monitor p.p_req
              in
              emit t ~seq:p.p_seq ~rid:p.p_rid outcome)
            pending;
          sync t;
          Ok
            ( t,
              {
                events_scanned = scanned;
                discarded_bytes = discarded;
                decoded;
                resumed = !resumed;
                rehandled = !rehandled;
              } ))

type step =
  | Replay_request of { seq : int; rid : string; req : Cm_http.Request.t }
  | Replay_mark of string

let replay_plan events =
  List.filter_map
    (function
      | Event.Request { seq; rid; req } -> Some (Replay_request { seq; rid; req })
      | Event.Mark { note; _ } -> Some (Replay_mark note)
      | Event.Pre _ | Event.Verdict _ -> None)
    events

let journaled_verdict_lines events =
  List.filter_map
    (function
      | Event.Verdict v -> Some (Event.verdict_line v)
      | Event.Request _ | Event.Pre _ | Event.Mark _ -> None)
    events
