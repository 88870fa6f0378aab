(* The monitor-tax benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --selftest [--benchmark FILE] [--layers FILE]

   A run replays its workload's seeded stream round after round, every
   pass on a freshly provisioned world, until [--seconds] have elapsed.
   Every monitored exchange is checked against an untimed reference pass
   of the same stream.  The last line of standard output is the result
   object; with [--trace 1] it carries the per-layer metrics of the
   traced rounds instead of the end-to-end ones, and the spans of the last
   traced pass are written under [.perfbench/]. *)

module Json = Cm_json.Json
module Obs_cache = Cm_monitor.Obs_cache
module Runtime = Cm_contracts.Runtime

let min_rounds = 2

type metric = { name : string; unit : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  problems : string list;
  summary : string list;
  stream_digests : string list;  (* reference, then every timed and bare pass *)
}

let percentile samples p = Cm_core.Stopwatch.percentile samples p
let median xs = percentile (Array.of_list xs) 50.
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sum_int f xs = sum (fun x -> float_of_int (f x)) xs
let us ns = ns /. 1e3
let ratio a b = if b = 0. then 0. else a /. b
let latencies passes = Array.concat (List.map (fun (t : Passes.timed) -> t.lat) passes)
let exchanges passes = sum_int (fun (t : Passes.timed) -> Array.length t.lat) passes
let rate n ns = float_of_int n /. (ns /. 1e9)

(* Median exchange time over the last tenth of a pass over the first. *)
let drift (t : Passes.timed) =
  let n = Array.length t.lat in
  let k = max 1 (n / 10) in
  percentile (Array.sub t.lat (n - k) k) 50. /. percentile (Array.sub t.lat 0 k) 50.

type rounds = {
  untraced : Passes.timed list;
  traced : Passes.timed list;
  bares : Passes.bare list;
  pools : Passes.pool list;
  pool_spans : Span.totals;
}

let end_to_end r =
  let lat = latencies r.untraced in
  let bare = Array.concat (List.map (fun (b : Passes.bare) -> b.b_lat) r.bares) in
  let over_untraced f = median (List.map f r.untraced) in
  [ { name = "exchange_p50_us"; unit = "us"; value = us (percentile lat 50.) };
    { name = "exchange_p90_us"; unit = "us"; value = us (percentile lat 90.) };
    { name = "throughput_rps";
      unit = "1/s";
      value = over_untraced (fun t -> rate (Array.length t.lat) t.loop_ns)
    };
    { name = "monitor_tax";
      unit = "ratio";
      value = percentile lat 50. /. percentile bare 50.
    };
    { name = "setup_s"; unit = "s"; value = over_untraced (fun t -> t.setup_ns /. 1e9) };
    { name = "live_heap_mb";
      unit = "MB";
      value =
        over_untraced (fun t ->
            float_of_int (t.live_words * (Sys.word_size / 8)) /. 1e6)
    };
    { name = "drift_ratio"; unit = "ratio"; value = over_untraced drift };
    { name = "recovery_ms";
      unit = "ms";
      value = over_untraced (fun t -> t.after.recovery_ns /. 1e6)
    }
  ]

let per_layer r =
  let traced = r.traced in
  let spans = Span.empty_totals () in
  List.iter (fun (t : Passes.timed) -> Span.merge spans t.spans) traced;
  let per_x v = v /. exchanges traced in
  let span_count k = per_x (float_of_int (Span.count spans k)) in
  let span_us k = us (per_x (Span.ns spans k)) in
  let phase i = us (per_x (sum (fun (t : Passes.timed) -> t.phases_ns.(i)) traced)) in
  let cache f = sum_int (fun (t : Passes.timed) -> f t.cache) traced in
  let hits = cache (fun c -> c.Obs_cache.hits) in
  let misses = cache (fun c -> c.Obs_cache.misses) in
  let evals = sum_int (fun (t : Passes.timed) -> t.eval.Runtime.evals) traced in
  let replays = sum_int (fun (t : Passes.timed) -> t.eval.Runtime.replays) traced in
  let pool_sum f = sum f r.pools in
  let pool_x = pool_sum (fun (p : Passes.pool) -> float_of_int (Array.length p.p_verdicts)) in
  let batches = float_of_int (Span.count r.pool_spans Span.Batch) in
  [ { name = "observer.gets_per_exchange"; unit = "count"; value = span_count Span.Observe };
    { name = "observer.get_us"; unit = "us"; value = span_us Span.Observe };
    { name = "obs_cache.hit_ratio"; unit = "ratio"; value = ratio hits (hits +. misses) };
    { name = "obs_cache.invalidations_per_exchange";
      unit = "count";
      value = per_x (cache (fun c -> c.Obs_cache.invalidated))
    };
    { name = "cloudsim.forward_us"; unit = "us"; value = span_us Span.Forward };
    { name = "cloudsim.forwards_per_exchange"; unit = "count"; value = span_count Span.Forward };
    { name = "monitor.self_us"; unit = "us"; value = us (per_x (Span.exchange_self_ns spans)) };
    { name = "monitor.observe_pre_us"; unit = "us"; value = phase 0 };
    { name = "monitor.eval_pre_us"; unit = "us"; value = phase 1 };
    { name = "monitor.forward_us"; unit = "us"; value = phase 2 };
    { name = "monitor.observe_post_us"; unit = "us"; value = phase 3 };
    { name = "monitor.eval_post_us"; unit = "us"; value = phase 4 };
    { name = "contracts.evals_per_exchange"; unit = "count"; value = per_x evals };
    { name = "contracts.replay_ratio"; unit = "ratio"; value = ratio replays (evals +. replays) };
    { name = "journal.pre_us"; unit = "us"; value = span_us Span.Journal_pre };
    { name = "journal.barrier_us"; unit = "us"; value = span_us Span.Journal_barrier };
    { name = "journal.bytes_per_exchange";
      unit = "B";
      value = per_x (sum_int (fun (t : Passes.timed) -> t.after.journal_bytes) traced)
    };
    { name = "journal.syncs_per_exchange";
      unit = "count";
      value = per_x (sum_int (fun (t : Passes.timed) -> t.after.journal_syncs) traced)
    };
    { name = "journal.events_scanned";
      unit = "count";
      value =
        median (List.map (fun (t : Passes.timed) -> float_of_int t.after.events_scanned) traced)
    };
    (* Per-layer, not end-to-end: a two-domain pool waits at every
       stop-the-world minor collection for whichever vCPU the host has
       descheduled, so on a host with steal time it swings with the
       host's load far beyond any bound a regression gate can use. *)
    { name = "shard.pool_rps";
      unit = "1/s";
      value = rate (int_of_float pool_x) (pool_sum (fun p -> p.p_busy_ns))
    };
    { name = "shard.skew";
      unit = "ratio";
      value = median (List.map (fun (p : Passes.pool) -> p.p_skew) r.pools)
    };
    { name = "shard.batch_us";
      unit = "us";
      value = us (ratio (Span.ns r.pool_spans Span.Batch) batches)
    };
    { name = "domain_pool.spawns";
      unit = "count";
      value = pool_sum (fun p -> float_of_int p.p_spawns)
    };
    { name = "lockstat.acquisitions_per_exchange";
      unit = "count";
      value = ratio (pool_sum (fun p -> float_of_int p.p_locks)) pool_x
    };
    { name = "gc.minor_words_per_exchange";
      unit = "words";
      value = sum (fun (t : Passes.timed) -> t.minor_words) r.untraced /. exchanges r.untraced
    };
    { name = "gc.major_collections";
      unit = "count";
      value =
        median (List.map (fun (t : Passes.timed) -> float_of_int t.major_collections) r.untraced)
    };
    { name = "workload.gen_ms";
      unit = "ms";
      value = median (List.map (fun (t : Passes.timed) -> t.gen_ns /. 1e6) (r.untraced @ traced))
    };
    { name = "trace.overhead_us";
      unit = "us";
      value = us (percentile (latencies traced) 50. -. percentile (latencies r.untraced) 50.)
    }
  ]

let run kind scale ~seed ~seconds ~traced ~out =
  let domains = Cm_core.Domain_pool.available () in
  let reference = Passes.reference kind scale ~seed in
  let n = Array.length reference.requests in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let problem msg = if not (List.mem msg !problems) then problems := msg :: !problems in
  let digests = ref [ Passes.stream_digest reference.requests ] in
  let check_working_set size =
    if size > World.working_set then
      problem
        (Printf.sprintf "a tenant held %d volumes, above the working set of %d" size
           World.working_set)
  in
  if Array.exists Passes.bad_outcome reference.verdicts then
    problem "the reference pass reported a violation or an undecided verdict";
  check_working_set reference.listing_max;
  (* Gate every monitored exchange of a pass against the reference. *)
  let check what verdicts sent =
    if Array.length verdicts <> n then
      problem (Printf.sprintf "a %s pass served %d exchanges, the reference %d" what
                 (Array.length verdicts) n);
    Array.iteri
      (fun i v ->
        incr attempted;
        let same_request =
          match sent with
          | None -> true
          | Some s -> i < n && s.(i) = reference.requests.(i)
        in
        if i >= n || Passes.bad_outcome v || v <> reference.verdicts.(i)
           || not same_request
        then incr failed)
      verdicts
  in
  let start = Span.now_ns () in
  let elapsed () = (Span.now_ns () -. start) /. 1e9 in
  let untraced = ref [] and traced_passes = ref [] in
  let bares = ref [] and pools = ref [] in
  let pool_spans = Span.create () and last_trace = ref None in
  let round = ref 0 in
  (* A round is a timed pass and a bare-cloud pass, and every other round
     adds a pool pass, so that all three sample the whole run, not one
     stretch of it.  Traced rounds are the odd ones, so a traced run
     traces its pool passes too. *)
  while !round < min_rounds || elapsed () < seconds do
    let trace = if traced && !round mod 2 = 1 then Some (Span.create ()) else None in
    let t = Passes.timed kind scale ~seed ~trace in
    check "timed" t.verdicts (Some t.sent);
    digests := Passes.stream_digest t.sent :: !digests;
    if not t.after.recovered then problem "recovery lost, duplicated or changed a verdict";
    check_working_set t.after.working_set_max;
    (* Keep only what the metrics need. *)
    let t = { t with verdicts = [||]; sent = [||] } in
    (match trace with
     | None -> untraced := t :: !untraced
     | Some _ ->
       traced_passes := t :: !traced_passes;
       last_trace := trace);
    let b = Passes.bare reference in
    digests := Passes.stream_digest b.b_sent :: !digests;
    Array.iteri
      (fun i status ->
        if Option.fold ~none:false ~some:(fun s -> s <> b.b_statuses.(i)) status then
          problem "the bare cloud answered the stream differently from the monitored one")
      reference.statuses;
    bares := { b with b_sent = [||]; b_statuses = [||] } :: !bares;
    if !round mod 2 = 1 then begin
      let p =
        Passes.pool reference ~domains ~trace:(Option.map (fun _ -> pool_spans) trace)
      in
      check "pool" p.p_verdicts None;
      pools := p :: !pools
    end;
    incr round
  done;
  let rounds =
    { untraced = !untraced;
      traced = !traced_passes;
      bares = !bares;
      pools = !pools;
      pool_spans =
        (let t = Span.empty_totals () in
         Span.add_to t pool_spans;
         t)
    }
  in
  let metrics = if traced then per_layer rounds else end_to_end rounds in
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        problem ("metric " ^ m.name ^ " is not a number"))
    metrics;
  (match (!last_trace, out) with
   | Some t, Some dir ->
     (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     Span.write t
       (Filename.concat dir (Printf.sprintf "trace-%s.csv" (World.name_of kind)))
   | _ -> ());
  { correct = !problems = [] && !failed = 0;
    attempted = !attempted;
    failed = !failed;
    metrics;
    problems = List.rev !problems;
    summary =
      [ Printf.sprintf
          "workload %s, seed %d, %d domains: %d exchanges per pass, %d rounds (%d traced)"
          (World.name_of kind) seed domains n !round (List.length rounds.traced);
        "trace fingerprints: " ^ String.concat " " reference.fingerprints;
        Printf.sprintf "stream %s, verdicts %s" (List.hd (List.rev !digests))
          (Passes.verdict_digest reference.verdicts);
        Printf.sprintf "failed_share %g (%d of %d exchanges)"
          (ratio (float_of_int !failed) (float_of_int !attempted))
          !failed !attempted
      ];
    stream_digests = List.rev !digests
  }

let result_json r =
  let metric m =
    (m.name, Json.obj [ ("value", Json.float m.value); ("unit", Json.string m.unit) ])
  in
  Json.obj
    [ ("correct", Json.bool r.correct);
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ("metrics", Json.obj (List.map metric r.metrics))
    ]

(* ---- self-test -------------------------------------------------------- *)

let read_json path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Cm_json.Parser.parse_exn text

let string_field key json = Option.bind (Json.member key json) Json.to_string

let entries key json =
  match Json.member key json with Some (Json.List items) -> items | _ -> []

let selftest ~benchmark ~layers =
  let bench = read_json benchmark and layer_map = read_json layers in
  let checks = ref 0 and fails = ref 0 in
  let expect what ok =
    incr checks;
    if not ok then begin
      Printf.printf "FAIL %s\n%!" what;
      incr fails
    end
  in
  let declared key =
    List.map
      (fun e ->
        let field key = Option.value ~default:"" (string_field key e) in
        (field "name", field "unit"))
      (entries key bench)
  in
  let workloads = List.filter_map (string_field "name") (entries "workloads" bench) in
  let e2e = declared "end_to_end" and layer = declared "per_layer" in
  expect "BENCHMARK.json declares exactly the benchmark's workloads"
    (List.sort compare workloads = List.sort compare (List.map fst World.kinds));
  (* Every per-layer metric says which metrics it should move, on which
     workloads, and where it should leave them alone. *)
  expect "layers.json maps exactly the declared per-layer metrics"
    (List.sort compare (Json.keys layer_map) = List.sort compare (List.map fst layer));
  List.iter
    (fun name ->
      let strings field =
        match Option.bind (Json.member name layer_map) (Json.member field) with
        | Some (Json.List items) -> Some (List.filter_map Json.to_string items)
        | _ -> None
      in
      expect
        (Printf.sprintf "layers.json: %s names declared metrics and workloads" name)
        (match (strings "moves", strings "on", strings "steady_on") with
         | Some moves, Some on, Some steady ->
           List.for_all (fun m -> List.mem_assoc m (e2e @ layer)) moves
           && List.for_all (fun w -> List.mem w workloads) (on @ steady)
         | _ -> false))
    (Json.keys layer_map);
  List.iter
    (fun (wname, kind) ->
      let a = Passes.reference kind World.small ~seed:3 in
      let b = Passes.reference kind World.small ~seed:3 in
      let c = Passes.reference kind World.small ~seed:4 in
      expect (wname ^ ": same seed, same fingerprint and request stream")
        (a.fingerprints = b.fingerprints
        && Passes.stream_digest a.requests = Passes.stream_digest b.requests);
      expect (wname ^ ": same seed, same verdict digest")
        (Passes.verdict_digest a.verdicts = Passes.verdict_digest b.verdicts);
      expect (wname ^ ": another seed, another fingerprint stream")
        (a.fingerprints <> c.fingerprints);
      List.iter
        (fun (traced, declared) ->
          let r = run kind World.small ~seed:3 ~seconds:0. ~traced ~out:None in
          let what = Printf.sprintf "%s (trace %d)" wname (Bool.to_int traced) in
          List.iter (fun p -> print_endline ("     " ^ p)) r.problems;
          expect (what ^ ": the run is correct") r.correct;
          expect (what ^ ": every metric is declared, with its unit")
            (List.map (fun m -> (m.name, m.unit)) r.metrics = declared);
          expect (what ^ ": timed and bare-cloud passes replay the reference stream")
            (List.length r.stream_digests > 2
            && List.for_all (String.equal (List.hd r.stream_digests)) r.stream_digests))
        [ (false, e2e); (true, layer) ])
    World.kinds;
  if !fails > 0 then begin
    Printf.printf "self-test: %d of %d checks failed\n" !fails !checks;
    exit 1
  end;
  Printf.printf "self-test: all %d checks passed\n" !checks

(* ---- command line ----------------------------------------------------- *)

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
   main.exe --selftest [--benchmark FILE] [--layers FILE]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.) and trace = ref (-1) in
  let self = ref false in
  let benchmark = ref "BENCHMARK.json" and layers = ref "perfbench/layers.json" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--selftest", Arg.Set self, " check determinism and metric declarations");
      ("--benchmark", Arg.Set_string benchmark, "FILE BENCHMARK.json to check against");
      ("--layers", Arg.Set_string layers, "FILE layer-metric map to check")
    ]
  in
  let fail msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> fail ("unexpected argument " ^ a)) usage
   with Arg.Bad msg | Arg.Help msg -> fail msg);
  if !self then selftest ~benchmark:!benchmark ~layers:!layers
  else begin
    let kind =
      match List.assoc_opt !workload World.kinds with
      | Some k -> k
      | None -> fail ("unknown workload " ^ !workload)
    in
    if !seed < 0 || !seconds < 0. || (!trace <> 0 && !trace <> 1) then
      fail "--seed, --seconds and --trace 0|1 are required";
    let r =
      run kind World.full ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
        ~out:(Some ".perfbench")
    in
    List.iter print_endline r.summary;
    List.iter (fun p -> print_endline ("problem: " ^ p)) r.problems;
    print_endline (Cm_json.Printer.to_string (result_json r))
  end
