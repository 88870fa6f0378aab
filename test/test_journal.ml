(* Tests for the durable event journal and crash recovery.

   The framing layer is checked exhaustively: the journal of a real
   recorded run is truncated at EVERY byte offset and corrupted at
   EVERY byte offset, and the scanner must return exactly the frames
   that are completely and correctly present.  End-to-end, the same
   truncation sweep runs through full recovery: at every offset the
   recovered verdict stream must be exactly-once per journaled request,
   with every durably-concluded exchange reproduced verbatim.  On top
   of that: crash-point injection at every site, journal-replay
   bit-identity for all five workload mixes under both evaluation
   modes, and a bounded run of the [journal] fuzz oracle. *)

module Device = Cm_journal.Device
module Record = Cm_journal.Record
module Event = Cm_journal.Event
module Journal = Cm_journal.Journal
module Jmonitor = Cm_journal.Jmonitor
module Scenario = Cm_mutation.Scenario
module Campaign = Cm_mutation.Campaign
module Mutant = Cm_mutation.Mutant
module Workload = Cm_workload.Workload
module Runtime = Cm_contracts.Runtime
module Clock = Cm_core.Clock

let require = function
  | Ok v -> v
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)

let record_standard () =
  let ctx = require (Scenario.setup_journaled ()) in
  let _ = Scenario.jrun_trace ctx Workload.standard_trace in
  Jmonitor.sync ctx.Scenario.jmon;
  ctx

(* ---- record framing ---- *)

let fresh_device () =
  let clock = Clock.create () in
  Device.create ~clock ~seed:11 ()

(* The textbook bytewise CRC-32 (IEEE, reflected), bit by bit: the
   reference the slice-by-8 kernel must equal. *)
let reference_crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let random_bytes ~seed n =
  let st = Random.State.make [| seed |] in
  String.init n (fun _ -> Char.chr (Random.State.int st 256))

let record_tests =
  [ Alcotest.test_case "frame/scan round-trip" `Quick (fun () ->
        let payloads = [ ""; "x"; String.make 300 'a'; "{\"k\":[1,2]}" ] in
        let data = String.concat "" (List.map Record.frame payloads) in
        let scanned, clean = Record.scan data in
        Alcotest.(check (list string)) "payloads" payloads scanned;
        Alcotest.(check int) "clean offset" (String.length data) clean;
        let spans, clean' = Record.spans data in
        Alcotest.(check (list string))
          "spans locate the payloads in place" payloads
          (List.map (fun (off, len) -> String.sub data off len) spans);
        Alcotest.(check int) "spans clean offset" clean clean');
    Alcotest.test_case "truncation at every byte offset" `Quick (fun () ->
        let payloads = [ "alpha"; ""; "gamma-gamma"; String.make 64 'z' ] in
        let frames = List.map Record.frame payloads in
        let data = String.concat "" frames in
        (* frame start offsets *)
        let starts, _ =
          List.fold_left
            (fun (acc, off) f -> (off :: acc, off + String.length f))
            ([], 0) frames
        in
        let starts = List.rev starts in
        for n = 0 to String.length data do
          let scanned, clean = Record.scan (String.sub data 0 n) in
          (* exactly the frames wholly inside the first [n] bytes *)
          let expect =
            List.filteri
              (fun i _ ->
                List.nth starts i + String.length (List.nth frames i) <= n)
              payloads
          in
          Alcotest.(check (list string))
            (Printf.sprintf "payloads at cut %d" n)
            expect scanned;
          let expect_clean =
            List.fold_left2
              (fun acc start f ->
                if start + String.length f <= n then start + String.length f
                else acc)
              0 starts frames
          in
          Alcotest.(check int)
            (Printf.sprintf "clean offset at cut %d" n)
            expect_clean clean
        done);
    Alcotest.test_case "corruption at every byte offset" `Quick (fun () ->
        let payloads = [ "alpha"; "beta!"; String.make 48 'q'; "" ] in
        let frames = List.map Record.frame payloads in
        let data = String.concat "" frames in
        let starts, _ =
          List.fold_left
            (fun (acc, off) f -> (off :: acc, off + String.length f))
            ([], 0) frames
        in
        let starts = List.rev starts in
        for n = 0 to String.length data - 1 do
          let corrupted = Bytes.of_string data in
          Bytes.set corrupted n
            (Char.chr (Char.code (Bytes.get corrupted n) lxor 0x41));
          let scanned, _clean = Record.scan (Bytes.to_string corrupted) in
          (* the frames strictly before the corrupted one, exactly *)
          let expect =
            List.filteri
              (fun i _ ->
                List.nth starts i + String.length (List.nth frames i) <= n)
              payloads
          in
          Alcotest.(check (list string))
            (Printf.sprintf "payloads with byte %d corrupted" n)
            expect scanned
        done);
    Alcotest.test_case "crc32 detects single-byte damage" `Quick (fun () ->
        let p = "the quick brown fox" in
        let c = Record.crc32 p in
        String.iteri
          (fun i ch ->
            let b = Bytes.of_string p in
            Bytes.set b i (Char.chr (Char.code ch lxor 1));
            if Record.crc32 (Bytes.to_string b) = c then
              Alcotest.failf "collision flipping byte %d" i)
          p);
    Alcotest.test_case "crc32 standard check value" `Quick (fun () ->
        Alcotest.(check int) "crc32 \"123456789\"" 0xCBF43926
          (Record.crc32 "123456789"));
    Alcotest.test_case "slice-by-8 kernel equals the bytewise reference"
      `Quick (fun () ->
        let s = random_bytes ~seed:5 (64 + 8) in
        for off = 0 to 7 do
          for len = 0 to 64 do
            let expect = reference_crc32 (String.sub s off len) in
            Alcotest.(check int)
              (Printf.sprintf "crc32_at off %d len %d" off len)
              expect
              (Record.crc32_at s ~off ~len);
            Alcotest.(check int)
              (Printf.sprintf "crc32 of the copy, off %d len %d" off len)
              expect
              (Record.crc32 (String.sub s off len))
          done
        done;
        let big = random_bytes ~seed:6 (1 lsl 20) in
        Alcotest.(check int) "1 MiB" (reference_crc32 big) (Record.crc32 big))
  ]

(* ---- event serialization ---- *)

(* Payloads that must neither decode nor peek. *)
let garbage =
  [ ""; "{}"; "[\"zzz\"]"; "[\"ver\"]"; "not json"; "[\"req\",1]";
    "v 1 3:ab\n"; "v 1 2:ab"; "r 01 1:a\n{}"; "p 1"; "x 1\n{}"; "p -0\n{}";
    "v 1 1234567890123456789:a\n{}"; "p 1234567890123456789\n{}";
    "v 1\n{}"; "p 1 1:a\n{}"; "r 1 1:a\n{}"; "r  1\n{}" ]

let event_tests =
  [ Alcotest.test_case "every recorded event round-trips" `Quick (fun () ->
        let ctx = record_standard () in
        let events, clean = Journal.scan ctx.Scenario.jdevice in
        Alcotest.(check bool) "journal non-trivial" true (List.length events > 20);
        Alcotest.(check int)
          "journal clean" (Device.size ctx.Scenario.jdevice) clean;
        List.iter
          (fun e ->
            let enc = Event.encode e in
            match Event.decode enc with
            | None -> Alcotest.failf "does not decode: %s" enc
            | Some e' ->
              Alcotest.(check string) "re-encodes identically" enc
                (Event.encode e'))
          events;
        (* the standard trace exercises Request/Pre/Verdict; Mark is
           covered by a constructed event *)
        let has p = List.exists p events in
        Alcotest.(check bool) "has Request" true
          (has (function Event.Request _ -> true | _ -> false));
        Alcotest.(check bool) "has Pre" true
          (has (function Event.Pre _ -> true | _ -> false));
        Alcotest.(check bool) "has Verdict" true
          (has (function Event.Verdict _ -> true | _ -> false));
        let mark = Event.Mark { seq = 99; note = "relogin:alice" } in
        (match Event.decode (Event.encode mark) with
         | Some (Event.Mark { seq = 99; note = "relogin:alice" }) -> ()
         | _ -> Alcotest.fail "Mark does not round-trip"));
    Alcotest.test_case "decode is total on garbage" `Quick (fun () ->
        List.iter
          (fun s ->
            match Event.decode s with
            | None -> ()
            | Some _ -> Alcotest.failf "garbage decoded: %s" s)
          garbage);
    Alcotest.test_case "peek is total on garbage" `Quick (fun () ->
        List.iter
          (fun s ->
            match Event.peek s ~off:0 ~len:(String.length s) with
            | None -> ()
            | Some _ -> Alcotest.failf "garbage peeked: %S" s)
          garbage;
        (* out-of-bounds slices are refused, not raised on *)
        let p = Event.encode (Event.Mark { seq = 1; note = "n" }) in
        List.iter
          (fun (off, len) ->
            match Event.peek p ~off ~len with
            | None -> ()
            | Some _ -> Alcotest.failf "slice %d+%d peeked" off len)
          [ (-1, 4); (0, String.length p + 1); (String.length p, 4); (2, -3) ]);
    Alcotest.test_case "header round-trips any rid" `Quick (fun () ->
        let rids =
          [ ""; "a b"; "x\ny"; "r\195\169seau-\226\156\147";
            String.init 1024 (fun i -> Char.chr (i mod 256)) ]
        in
        List.iter
          (fun rid ->
            let req =
              Cm_http.Request.make
                ~headers:(Cm_http.Headers.of_list [ (Jmonitor.rid_header, rid) ])
                Cm_http.Meth.GET "/v3/p/volumes"
            in
            let verdict =
              { Event.v_seq = 812; v_rid = rid; v_meth = "GET";
                v_path = "/v3/p/volumes"; v_status = 200;
                v_conformance = "conform"; v_detail = ""; v_covered = [];
                v_body = None }
            in
            List.iter
              (fun (ev, kind, header_rid) ->
                let enc = Event.encode ev in
                (match Event.peek enc ~off:0 ~len:(String.length enc) with
                 | Some (k, seq, r) ->
                   Alcotest.(check bool) "peeked kind" true (k = kind);
                   Alcotest.(check int) "peeked seq" (Event.seq ev) seq;
                   Alcotest.(check string) "peeked rid" header_rid r
                 | None -> Alcotest.failf "does not peek: %S" enc);
                match Event.decode enc with
                | None -> Alcotest.failf "does not decode: %S" enc
                | Some ev' ->
                  let rid' =
                    match ev' with
                    | Event.Request { rid; _ } -> rid
                    | Event.Verdict v -> v.Event.v_rid
                    | Event.Pre _ | Event.Mark _ -> Alcotest.fail "kind"
                  in
                  Alcotest.(check string) "rid survives" rid rid';
                  Alcotest.(check string) "re-encodes identically" enc
                    (Event.encode ev'))
              [ (Event.Request { seq = 811; rid; req }, Event.Request_kind, "");
                (Event.Verdict verdict, Event.Verdict_kind, rid) ])
          rids);
    Alcotest.test_case "peek and decode are total on every truncation"
      `Quick (fun () ->
        let ctx = record_standard () in
        let payloads, _ = Record.scan (Device.contents ctx.Scenario.jdevice) in
        List.iter
          (fun p ->
            let full = Event.peek p ~off:0 ~len:(String.length p) in
            let header_end = String.index p '\n' + 1 in
            if full = None then Alcotest.failf "does not peek: %S" p;
            for n = 0 to String.length p - 1 do
              (* a cut inside the header line leaves no header; a cut in
                 the body leaves the header intact but no event *)
              let peeked = Event.peek p ~off:0 ~len:n in
              if n < header_end then begin
                if peeked <> None then
                  Alcotest.failf "cut %d of %S peeked" n p
              end
              else if peeked <> full then
                Alcotest.failf "cut %d of %S changed the header" n p;
              if Event.decode (String.sub p 0 n) <> None then
                Alcotest.failf "cut %d of %S decoded" n p
            done)
          payloads);
    Alcotest.test_case "decode refuses a header that disagrees with its body"
      `Quick (fun () ->
        let ctx = record_standard () in
        let events, _ = Journal.scan ctx.Scenario.jdevice in
        let body e =
          let enc = Event.encode e in
          let nl = String.index enc '\n' in
          String.sub enc (nl + 1) (String.length enc - nl - 1)
        in
        let refuse what payload =
          match Event.decode payload with
          | None -> ()
          | Some _ -> Alcotest.failf "%s decoded: %S" what payload
        in
        let first p = List.find p events in
        (match first (function Event.Verdict _ -> true | _ -> false) with
         | Event.Verdict v as e ->
           let b = body e and rid = v.Event.v_rid and seq = v.Event.v_seq in
           let hdr seq rid =
             Printf.sprintf "v %d %d:%s\n" seq (String.length rid) rid
           in
           Alcotest.(check bool) "the honest header decodes" true
             (Event.decode (hdr seq rid ^ b) <> None);
           refuse "seq" (hdr (seq + 1) rid ^ b);
           refuse "rid" (hdr seq (rid ^ "x") ^ b);
           refuse "tag" (Printf.sprintf "r %d\n%s" seq b);
           refuse "tag" (Printf.sprintf "m %d\n%s" seq b)
         | _ -> assert false);
        match first (function Event.Pre _ -> true | _ -> false) with
        | Event.Pre { seq; _ } as e ->
          refuse "pre as mark" (Printf.sprintf "m %d\n%s" seq (body e));
          refuse "pre seq" (Printf.sprintf "p %d\n%s" (seq + 1) (body e));
          refuse "pre with a rid" (Printf.sprintf "p %d 1:x\n%s" seq (body e))
        | _ -> assert false)
  ]

(* ---- device semantics ---- *)

let device_tests =
  [ Alcotest.test_case "sync moves the durability watermark" `Quick (fun () ->
        let d = fresh_device () in
        Device.append d "abc";
        Alcotest.(check int) "unsynced" 0 (Device.durable_size d);
        Device.sync d;
        Alcotest.(check int) "synced" 3 (Device.durable_size d);
        let before = Device.syncs d in
        Device.sync d;
        Alcotest.(check int) "empty sync is a no-op" before (Device.syncs d));
    Alcotest.test_case "crash keeps synced bytes, tears the tail" `Quick
      (fun () ->
        (* over many seeds: the survivor is always a prefix, always at
           least the durable bytes, and the torn draw actually varies *)
        let lengths = Hashtbl.create 8 in
        for seed = 0 to 63 do
          let clock = Clock.create () in
          let d = Device.create ~clock ~seed () in
          Device.append d "abc";
          Device.sync d;
          Device.append d "defgh";
          Device.crash d;
          let c = Device.contents d in
          Alcotest.(check bool)
            "prefix of the pre-crash bytes" true
            (String.length c <= 8
            && String.sub "abcdefgh" 0 (String.length c) = c);
          Alcotest.(check bool) "synced bytes survive" true
            (String.length c >= 3);
          Hashtbl.replace lengths (String.length c) ()
        done;
        Alcotest.(check bool) "torn lengths vary across seeds" true
          (Hashtbl.length lengths > 2));
    Alcotest.test_case "truncate discards and caps the watermark" `Quick
      (fun () ->
        let d = fresh_device () in
        Device.append d "abcdef";
        Device.sync d;
        Device.truncate d 2;
        Alcotest.(check int) "size" 2 (Device.size d);
        Alcotest.(check bool) "watermark capped" true
          (Device.durable_size d <= 2))
  ]

(* ---- torn-tail recovery sweep ---- *)

(* One recorded run; then the journal image is cut at every byte
   offset and mounted on a fresh device, recovering after each cut
   (each recovery gets its own device — a recovery truncates the torn
   tail and appends its own verdicts, so reusing one device would let
   iterations contaminate each other).  At every offset:

   - recovery must succeed,
   - the recovered verdicts are exactly one per journaled request
     (exactly-once, no duplicates, no inventions),
   - every exchange whose verdict was durable is reproduced
     bit-identically to the crash-free run.

   Exchanges concluded during recovery (resumed from a durable
   pre-image, or re-handled from the bare request) are covered by the
   exactly-once checks but not line-compared: this sweep cuts the
   journal of a run that went on to completion, so post-state
   re-observation sees effects of later steps — unlike a real crash,
   where the cloud stops with the journal.  The crash-injection tests
   below cover the real model, where resumed verdicts do match the
   crash-free run verbatim. *)

let torn_tests =
  [ Alcotest.test_case "recovery at every truncation offset" `Slow (fun () ->
        let ctx = record_standard () in
        let clean_by_seq =
          List.map
            (fun (v : Event.verdict_record) ->
              (v.Event.v_seq, Event.verdict_line v))
            (Jmonitor.verdicts ctx.Scenario.jmon)
        in
        let image = Device.contents ctx.Scenario.jdevice in
        let total = String.length image in
        for n = total downto 0 do
          let device =
            Device.create
              ~contents:(String.sub image 0 n)
              ~clock:ctx.Scenario.jclock ~seed:3 ()
          in
          let events, clean = Journal.scan device in
          let size = Device.size device in
          let req_seqs =
            List.filter_map
              (function Event.Request { seq; _ } -> Some seq | _ -> None)
              events
          in
          let concluded_seqs =
            List.filter_map
              (function
                | Event.Verdict v -> Some v.Event.v_seq
                | _ -> None)
              events
          in
          let jm =
            match Jmonitor.recover device ctx.Scenario.jmake with
            | Error msgs ->
              Alcotest.failf "cut %d: recovery failed: %s" n
                (String.concat "; " msgs)
            | Ok (jm, rep) ->
              Alcotest.(check int)
                (Printf.sprintf "cut %d: discarded bytes" n)
                (size - clean) rep.Jmonitor.discarded_bytes;
              jm
          in
          let recovered = Jmonitor.verdicts jm in
          let seqs = List.map (fun v -> v.Event.v_seq) recovered in
          Alcotest.(check (list int))
            (Printf.sprintf "cut %d: exactly one verdict per request" n)
            (List.sort compare req_seqs)
            (List.sort compare seqs);
          List.iter
            (fun (v : Event.verdict_record) ->
              if List.mem v.Event.v_seq concluded_seqs then
                match List.assoc_opt v.Event.v_seq clean_by_seq with
                | None ->
                  Alcotest.failf "cut %d: seq %d not in the clean run" n
                    v.Event.v_seq
                | Some line ->
                  Alcotest.(check string)
                    (Printf.sprintf "cut %d: seq %d verbatim" n v.Event.v_seq)
                    line (Event.verdict_line v))
            recovered
        done)
  ]

(* ---- recovery reads headers, decodes the in-flight tail ---- *)

let mount image =
  Device.create ~contents:image ~clock:(Clock.create ()) ~seed:3 ()

let recovery_tests =
  [ Alcotest.test_case "clean shutdown: recovery decodes nothing" `Quick
      (fun () ->
        let ctx = record_standard () in
        let image = Device.contents ctx.Scenario.jdevice in
        let device = mount image in
        let events, _ = Journal.scan device in
        match Jmonitor.recover device ctx.Scenario.jmake with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok (jm, rep) ->
          Alcotest.(check int) "decoded" 0 rep.Jmonitor.decoded;
          Alcotest.(check int) "events scanned" (List.length events)
            rep.Jmonitor.events_scanned;
          Alcotest.(check int) "discarded" 0 rep.Jmonitor.discarded_bytes;
          Alcotest.(check int) "resumed + rehandled" 0
            (rep.Jmonitor.resumed + rep.Jmonitor.rehandled);
          Alcotest.(check string) "device untouched" image
            (Device.contents device);
          Alcotest.(check (list string))
            "verdicts" (Jmonitor.verdict_lines ctx.Scenario.jmon)
            (Jmonitor.verdict_lines jm));
    Alcotest.test_case "verdict_for_rid reads the journal" `Quick (fun () ->
        let ctx = record_standard () in
        let recovered =
          match
            Jmonitor.recover
              (mount (Device.contents ctx.Scenario.jdevice))
              ctx.Scenario.jmake
          with
          | Ok (jm, _) -> jm
          | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        in
        let verdicts = Jmonitor.verdicts ctx.Scenario.jmon in
        Alcotest.(check bool) "verdicts recorded" true (verdicts <> []);
        List.iter
          (fun jm ->
            List.iter
              (fun (v : Event.verdict_record) ->
                match Jmonitor.verdict_for_rid jm v.Event.v_rid with
                | Some v' ->
                  Alcotest.(check string) v.Event.v_rid (Event.verdict_line v)
                    (Event.verdict_line v')
                | None -> Alcotest.failf "no verdict for %s" v.Event.v_rid)
              verdicts;
            Alcotest.(check bool) "unknown key" true
              (Jmonitor.verdict_for_rid jm "no-such-key" = None))
          [ ctx.Scenario.jmon; recovered ]);
    Alcotest.test_case "recovery reads the device in place, byte-identically"
      `Quick (fun () ->
        let ctx = record_standard () in
        let image = Device.contents ctx.Scenario.jdevice in
        (* the copying reference: verdict lines decoded from a copy *)
        let copied_lines data =
          List.filter_map
            (fun payload ->
              match Event.decode payload with
              | Some (Event.Verdict v) -> Some (Event.verdict_line v)
              | Some _ | None -> None)
            (fst (Record.scan data))
        in
        Alcotest.(check (list string))
          "verdict lines" (copied_lines image)
          (Jmonitor.verdict_lines ctx.Scenario.jmon);
        (* a cut inside the last exchange leaves one in flight *)
        let spans, _ = Record.spans image in
        let last_off, _ = List.nth spans (List.length spans - 1) in
        let cut = String.sub image 0 (last_off - Record.header_length + 3) in
        let report device =
          match Jmonitor.recover device ctx.Scenario.jmake with
          | Error msgs -> Alcotest.fail (String.concat "; " msgs)
          | Ok (jm, rep) ->
            ( Printf.sprintf "%d %d %d %d %d" rep.Jmonitor.events_scanned
                rep.Jmonitor.discarded_bytes rep.Jmonitor.decoded
                rep.Jmonitor.resumed rep.Jmonitor.rehandled,
              Jmonitor.verdict_lines jm,
              Device.contents device )
        in
        let fresh = report (mount cut) in
        (* the same bytes with a well-formed frame past the end: written,
           then truncated away, it must stay invisible to the in-place
           reader *)
        let reused = mount cut in
        Device.append reused (Record.frame "v 999999 3:abc\n{}");
        Device.truncate reused (String.length cut);
        let reused = report reused in
        let rep_fresh, lines_fresh, bytes_fresh = fresh
        and rep_reused, lines_reused, bytes_reused = reused in
        Alcotest.(check string) "report" rep_fresh rep_reused;
        Alcotest.(check (list string)) "lines" lines_fresh lines_reused;
        Alcotest.(check string) "device" bytes_fresh bytes_reused;
        Alcotest.(check (list string))
          "recovered lines equal a copying decode" (copied_lines bytes_fresh)
          lines_fresh;
        Alcotest.check_raises "view bounds" (Invalid_argument "Record.spans")
          (fun () -> ignore (Record.spans ~len:(String.length cut + 1) cut)));
    Alcotest.test_case "a pending record with a header but no event is refused"
      `Quick (fun () ->
        let ctx = record_standard () in
        let image =
          Device.contents ctx.Scenario.jdevice
          ^ Record.frame "r 100000\n{not json"
        in
        let device = mount image in
        (match Jmonitor.recover device ctx.Scenario.jmake with
         | Ok _ -> Alcotest.fail "recovered from an undecodable request"
         | Error _ -> ());
        Alcotest.(check string) "device untouched" image
          (Device.contents device))
  ]

(* ---- crash-point injection ---- *)

let crash_tests =
  [ Alcotest.test_case "every site: crash, recover, exactly-once" `Slow
      (fun () ->
        List.iter
          (fun site ->
            let run =
              match
                Campaign.run_crash_one ~cross:false ~index:0 ~site ~nth:2
                  None None
              with
              | Ok r -> r
              | Error msgs ->
                Alcotest.failf "%s: %s" site (String.concat "; " msgs)
            in
            Alcotest.(check bool)
              (site ^ ": crash fired") true run.Campaign.xr_fired;
            if run.Campaign.xr_decoded > 2 then
              Alcotest.failf "%s: recovery decoded %d events" site
                run.Campaign.xr_decoded;
            if not (Campaign.crash_ok [ run ]) then
              Alcotest.failf "%s:\n%s" site (Campaign.crash_matrix [ run ]))
          Campaign.crash_sites);
    Alcotest.test_case "a mutant stays killed across the crash" `Slow
      (fun () ->
        let mutant =
          match Mutant.find "M1-delete-privilege-escalation" with
          | Some m -> m
          | None -> Alcotest.fail "mutant M1 not in the catalog"
        in
        let run =
          match
            Campaign.run_crash_one ~index:0 ~site:"monitor.after-forward"
              ~nth:2 None (Some mutant)
          with
          | Ok r -> r
          | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        in
        Alcotest.(check bool) "fired" true run.Campaign.xr_fired;
        Alcotest.(check bool) "killed" true run.Campaign.xr_killed;
        if not (Campaign.crash_ok [ run ]) then
          Alcotest.fail (Campaign.crash_matrix [ run ]))
  ]

(* ---- replay bit-identity ---- *)

let replay_tests =
  [ Alcotest.test_case "all five mixes replay bit-identically" `Slow (fun () ->
        List.iter
          (fun mix ->
            let trace = mix.Workload.compile ~seed:42 in
            let ctx = require (Scenario.setup_journaled ~cross:true ()) in
            let _ = Scenario.jrun_trace ctx trace in
            Jmonitor.sync ctx.Scenario.jmon;
            let events = Scenario.journal_events ctx in
            let recorded = Jmonitor.journaled_verdict_lines events in
            Alcotest.(check bool)
              (mix.Workload.mix_name ^ ": verdicts recorded") true
              (List.length recorded > 0);
            let replay engine =
              require (Scenario.replay_journal ~cross:true ~engine events)
            in
            let compiled = replay Runtime.Compiled in
            let interpreted = replay Runtime.Interpreted in
            Alcotest.(check (list string))
              (mix.Workload.mix_name ^ " compiled replay")
              recorded (Jmonitor.verdict_lines compiled);
            let keys jm =
              List.map Cm_proptest.Oracle.outcome_key
                (Cm_monitor.Monitor.outcomes (Jmonitor.monitor jm))
            in
            Alcotest.(check (list string))
              (mix.Workload.mix_name ^ " interpreted replay agrees")
              (keys compiled) (keys interpreted))
          Workload.mixes)
  ]

(* ---- the fuzz oracle, bounded ---- *)

let oracle_tests =
  [ Alcotest.test_case "journal oracle passes a bounded run" `Slow (fun () ->
        let oracle = Cm_proptest.Oracle.journal in
        for index = 0 to 4 do
          match
            oracle.Cm_proptest.Oracle.run_case ~shrink:false ~seed:42 ~index
              ~size:1
          with
          | Cm_proptest.Oracle.Pass -> ()
          | Cm_proptest.Oracle.Fail f ->
            Alcotest.failf "case %d: %s (%s)" index
              f.Cm_proptest.Oracle.detail f.Cm_proptest.Oracle.repr
        done)
  ]

let () =
  Alcotest.run "journal"
    [ ("record", record_tests);
      ("event", event_tests);
      ("device", device_tests);
      ("torn-tail", torn_tests);
      ("recovery", recovery_tests);
      ("crash", crash_tests);
      ("replay", replay_tests);
      ("oracle", oracle_tests)
    ]
