(* The passes a run is made of.  Each pass replays the workload's whole
   stream once on a freshly provisioned world:

   - [reference]: untimed, observation cache disabled, one domain — the
     verdicts every other pass must reproduce, and the recorded stream
     the bare-cloud and pool passes replay;
   - [timed]: the closed loop the end-to-end latencies come from — one
     client that sends its next request only after the previous reply;
   - [bare]: the same stream straight into [Cloud.handle], the
     denominator of the monitor tax;
   - [pool]: the same stream through [Shard.handle_all] on [domains]
     domains. *)

module Cloud = Cm_cloudsim.Cloud
module Request = Cm_http.Request
module Response = Cm_http.Response
module Meth = Cm_http.Meth
module Json = Cm_json.Json
module Monitor = Cm_monitor.Monitor
module Shard = Cm_monitor.Shard
module Outcome = Cm_monitor.Outcome
module Obs_cache = Cm_monitor.Obs_cache
module Jmonitor = Cm_journal.Jmonitor
module Device = Cm_journal.Device
module Workload = Cm_workload.Workload
module Exec = Cm_workload.Exec
module Runtime = Cm_contracts.Runtime

let now_ns = Span.now_ns

let ok_exn what = function
  | Ok v -> v
  | Error msgs -> failwith (what ^ ": " ^ String.concat "; " msgs)

let digest strings = Digest.to_hex (Digest.string (String.concat "\n" strings))
let stream_digest reqs = digest (Array.to_list (Array.map Request.to_curl reqs))

let verdict_digest verdicts =
  digest (Array.to_list (Array.map Outcome.conformance_to_string verdicts))

(* An exchange fails the correctness gate on its own when the monitor
   could not decide it or reports a violation: the cloud under test is
   the correct one, so any violation is a false alarm. *)
let bad_outcome = function
  | Outcome.Monitor_error _ | Outcome.Undefined _ | Outcome.Degraded _ -> true
  | c -> Outcome.is_violation c

(* The backend every monitor talks to.  Traced, each call becomes a
   span: a GET carrying one of the monitor's service credentials is an
   observation, anything else a forwarded client request. *)
let backend cloud ~trace ~service =
  match trace with
  | None -> Cloud.handle cloud
  | Some t ->
    fun req ->
      let start = now_ns () in
      let resp = Cloud.handle cloud req in
      let kind =
        match Request.auth_token req with
        | Some tok when req.Request.meth = Meth.GET && service tok ->
          Span.Observe
        | _ -> Span.Forward
      in
      Span.record t kind start (now_ns ());
      resp

(* ---- reference -------------------------------------------------------- *)

type reference = {
  kind : World.kind;
  fingerprints : string list;  (* Workload.fingerprint per trace *)
  items : World.item array;  (* the stream as recorded *)
  requests : Request.t array;
  verdicts : Outcome.conformance array;
  statuses : int option array;  (* cloud status per exchange, if forwarded *)
  listing_max : int;  (* largest volume listing any exchange returned *)
}

let status (o : Outcome.t) =
  Option.map (fun r -> r.Response.status) o.Outcome.cloud_response

let listing_size (o : Outcome.t) =
  match (o.Outcome.request.Request.meth, o.Outcome.cloud_response) with
  | Meth.GET, Some { Response.body = Some body; _ } -> (
    match Json.member "volumes" body with
    | Some (Json.List vols) -> List.length vols
    | _ -> 0)
  | _ -> 0

let reference kind scale ~seed =
  match kind with
  | World.Tenants_read ->
    let world = World.provision_read () in
    let traces = World.read_traces scale ~seed in
    let stream = World.read_stream world traces in
    let pool =
      Shard.create ~shards:World.tenants
        (World.read_config ~cache:Obs_cache.Disabled world)
        (Cloud.handle world.World.r_cloud)
      |> ok_exn "reference pool"
    in
    let outs = Shard.handle_all ~domains:1 pool (Array.to_list stream) in
    { kind;
      fingerprints = Array.to_list (Array.map Workload.fingerprint traces);
      items = Array.map (fun r -> World.Req r) stream;
      requests = stream;
      verdicts = Array.map (fun (o : Outcome.t) -> o.Outcome.conformance) outs;
      statuses = Array.map status outs;
      listing_max = Array.fold_left (fun m o -> max m (listing_size o)) 0 outs
    }
  | World.Churn_journaled | World.Adversarial_enforce ->
    let world = World.provision_dynamic () in
    let traces = World.dyn_traces kind scale ~seed in
    let monitor =
      Monitor.create
        (World.dyn_config ~mode:(World.mode_of kind) ~cache:Obs_cache.Disabled
           world)
        (Cloud.handle world.World.d_cloud)
      |> ok_exn "reference monitor"
    in
    let items = ref [] and outs = ref [] in
    let env =
      World.dyn_env world
        ~handle:(fun req ->
          let o = Monitor.handle monitor req in
          outs := o :: !outs;
          o.Outcome.response)
        ~flush:(fun () -> Monitor.flush_cache monitor)
        ~on_item:(fun it -> items := it :: !items)
    in
    Array.iter (fun trace -> ignore (Exec.run env trace)) traces;
    let items = Array.of_list (List.rev !items) in
    let outs = Array.of_list (List.rev !outs) in
    { kind;
      fingerprints = Array.to_list (Array.map Workload.fingerprint traces);
      items;
      requests = World.requests_of items;
      verdicts = Array.map (fun (o : Outcome.t) -> o.Outcome.conformance) outs;
      statuses = Array.map status outs;
      listing_max = Array.fold_left (fun m o -> max m (listing_size o)) 0 outs
    }

(* ---- timed closed loop ------------------------------------------------ *)

type timed = {
  lat : float array;  (* ns per exchange, client-visible *)
  verdicts : Outcome.conformance array;
  sent : Request.t array;
  loop_ns : float;  (* the whole client loop, out-of-band steps included *)
  setup_ns : float;  (* provisioning + monitor creation + stream generation *)
  gen_ns : float;  (* stream generation alone *)
  live_words : int;
      (* held by the pass's world, monitor and stream at its end, after
         Gc.full_major: the live heap then, minus the live heap before
         the world was provisioned *)
  minor_words : float;
  major_collections : int;
  cache : Obs_cache.stats;
  eval : Runtime.eval_stats;
  phases_ns : float array;  (* observe-pre, eval-pre, forward, observe-post, eval-post *)
  spans : Span.totals;
  after : after;
}

(* What a pass measures once its stream is done. *)
and after = {
  recovery_ns : float;  (* from a crash to a monitor that serves again *)
  recovered : bool;  (* recovery kept exactly one, identical verdict each *)
  events_scanned : int;
  journal_bytes : int;
  journal_syncs : int;
  working_set_max : int;  (* largest tenant collection at pass end *)
}

type recorder = {
  r_lat : float array;
  r_verdicts : Outcome.conformance array;
  r_sent : Request.t array;
  r_phases : float array;
  mutable r_n : int;
}

let recorder n =
  { r_lat = Array.make n 0.;
    r_verdicts = Array.make n Outcome.Not_monitored;
    r_sent = Array.make n (Request.make Meth.GET "/");
    r_phases = Array.make 5 0.;
    r_n = 0
  }

(* One exchange of the closed loop. *)
let exchange r ~trace handle req =
  let i = r.r_n in
  Option.iter (fun t -> t.Span.current <- i) trace;
  let start = now_ns () in
  let o = handle req in
  let stop = now_ns () in
  r.r_lat.(i) <- stop -. start;
  r.r_verdicts.(i) <- o.Outcome.conformance;
  r.r_sent.(i) <- req;
  r.r_n <- i + 1;
  (match trace with
   | None -> ()
   | Some t ->
     Span.record t Span.Exchange start stop;
     Option.iter
       (fun (p : Outcome.phases) ->
         let a = r.r_phases in
         a.(0) <- a.(0) +. p.observe_pre_ns;
         a.(1) <- a.(1) +. p.eval_pre_ns;
         a.(2) <- a.(2) +. p.forward_ns;
         a.(3) <- a.(3) +. p.observe_post_ns;
         a.(4) <- a.(4) +. p.eval_post_ns)
       o.Outcome.phases);
  o

let no_cache = { Obs_cache.hits = 0; misses = 0; invalidated = 0 }

(* Run [client] as the timed closed loop and collect what every workload
   reports alike; [finish] then measures the workload-specific rest
   (recovery, journal, working set) while the monitor is still alive. *)
let measure ~base_words ~setup_ns ~gen_ns ~trace ~n ~client ~stats ~finish =
  let r = recorder n in
  Gc.full_major ();
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let start = now_ns () in
  client r;
  let loop_ns = now_ns () -. start in
  let minor_words = Gc.minor_words () -. minor0 in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let spans = Span.empty_totals () in
  Option.iter (Span.add_to spans) trace;
  let cache, eval = stats () in
  Gc.full_major ();
  let live_words = (Gc.quick_stat ()).Gc.live_words - base_words in
  let after = finish (Array.sub r.r_verdicts 0 r.r_n) in
  { lat = Array.sub r.r_lat 0 r.r_n;
    verdicts = Array.sub r.r_verdicts 0 r.r_n;
    sent = Array.sub r.r_sent 0 r.r_n;
    loop_ns;
    setup_ns;
    gen_ns;
    live_words;
    minor_words;
    major_collections;
    cache;
    eval;
    phases_ns = r.r_phases;
    spans;
    after
  }

(* Without a journal, recovering from a crash is rebuilding the monitor:
   there is nothing to scan or resume.  A rebuild takes a few
   milliseconds, so the median of three is taken. *)
let rebuild_ns make =
  let once () =
    let start = now_ns () in
    ignore (Sys.opaque_identity (make ()));
    now_ns () -. start
  in
  let a = once () in
  let b = once () in
  let c = once () in
  max (min a b) (min (max a b) c)

let unjournaled ~recovery_ns ~working_set_max =
  { recovery_ns;
    recovered = true;
    events_scanned = 0;
    journal_bytes = 0;
    journal_syncs = 0;
    working_set_max
  }

(* The live heap before a pass provisions its world. *)
let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words

let timed_read scale ~seed ~trace =
  let base_words = live_words () in
  let t0 = now_ns () in
  let world = World.provision_read () in
  let g0 = now_ns () in
  let stream = World.read_stream world (World.read_traces scale ~seed) in
  let gen_ns = now_ns () -. g0 in
  let services = World.read_service_tokens world in
  let make () =
    Shard.create ~shards:World.tenants
      (World.read_config ~timings:(trace <> None)
         ~cache:Obs_cache.Cross_request world)
      (backend world.World.r_cloud ~trace ~service:(fun tok ->
           List.mem tok services))
    |> ok_exn "pool"
  in
  let pool = make () in
  let setup_ns = now_ns () -. t0 in
  let handle req = Monitor.handle (Shard.monitor pool (Shard.shard_of pool req)) req in
  measure ~base_words ~setup_ns ~gen_ns ~trace ~n:(Array.length stream)
    ~client:(fun r -> Array.iter (fun req -> ignore (exchange r ~trace handle req)) stream)
    ~stats:(fun () -> (Shard.cache_stats pool, Shard.eval_stats pool))
    ~finish:(fun _ ->
      let recovery_ns = rebuild_ns make in
      ignore (Sys.opaque_identity pool);
      unjournaled ~recovery_ns
        ~working_set_max:(Array.fold_left max 0 (World.volume_counts world)))

let timed_dynamic kind scale ~seed ~trace =
  let base_words = live_words () in
  let t0 = now_ns () in
  let world = World.provision_dynamic () in
  let g0 = now_ns () in
  let traces = World.dyn_traces kind scale ~seed in
  let gen_ns = now_ns () -. g0 in
  let n = Array.fold_left (fun acc t -> acc + List.length t) 0 traces in
  let service tok = String.equal tok world.World.d_service in
  let mode = World.mode_of kind in
  let flush = ref (fun () -> ()) in
  let client handle r =
    let env =
      World.dyn_env world
        ~handle:(fun req -> (exchange r ~trace handle req).Outcome.response)
        ~flush:(fun () -> !flush ())
        ~on_item:ignore
    in
    Array.iter (fun t -> ignore (Exec.run env t)) traces
  in
  match kind with
  | World.Churn_journaled ->
    (* The journal hooks are wrapped here, in the factory the bench
       hands to Jmonitor, so their spans come from the bench's side. *)
    let jmake trace ~journal_pre ~journal_barrier ~crash:_ () =
      let journal_pre img = Span.timed trace Span.Journal_pre (fun () -> journal_pre img) in
      let journal_barrier () =
        Span.timed trace Span.Journal_barrier journal_barrier
      in
      Monitor.create
        (World.dyn_config ~timings:(trace <> None) ~journal_pre ~journal_barrier
           ~mode ~cache:Obs_cache.Per_request world)
        (backend world.World.d_cloud ~trace ~service)
    in
    let device =
      Device.create ~clock:(Cloud.clock world.World.d_cloud) ~seed ()
    in
    let jm = Jmonitor.create device (jmake trace) |> ok_exn "journaled monitor" in
    flush := (fun () -> Monitor.flush_cache (Jmonitor.monitor jm));
    let setup_ns = now_ns () -. t0 in
    measure ~base_words ~setup_ns ~gen_ns ~trace ~n ~client:(client (Jmonitor.handle jm))
      ~stats:(fun () ->
        let m = Jmonitor.monitor jm in
        (Option.value ~default:no_cache (Monitor.cache_stats m), Monitor.eval_stats m))
      ~finish:(fun verdicts ->
        let bytes = Device.size device and syncs = Device.syncs device in
        let start = now_ns () in
        Device.crash device;
        let recovered, rep = Jmonitor.recover device (jmake None) |> ok_exn "recover" in
        let recovery_ns = now_ns () -. start in
        ignore (Sys.opaque_identity jm);
        let lines =
          List.map
            (fun v -> v.Cm_journal.Event.v_conformance)
            (Jmonitor.verdicts recovered)
        in
        { recovery_ns;
          recovered =
            lines = Array.to_list (Array.map Outcome.conformance_to_string verdicts);
          events_scanned = rep.Jmonitor.events_scanned;
          journal_bytes = bytes;
          journal_syncs = syncs;
          working_set_max = 0
        })
  | World.Adversarial_enforce | World.Tenants_read ->
    let make () =
      Monitor.create
        (World.dyn_config ~timings:(trace <> None) ~mode
           ~cache:Obs_cache.Per_request world)
        (backend world.World.d_cloud ~trace ~service)
      |> ok_exn "monitor"
    in
    let monitor = make () in
    flush := (fun () -> Monitor.flush_cache monitor);
    let setup_ns = now_ns () -. t0 in
    measure ~base_words ~setup_ns ~gen_ns ~trace ~n ~client:(client (Monitor.handle monitor))
      ~stats:(fun () ->
        ( Option.value ~default:no_cache (Monitor.cache_stats monitor),
          Monitor.eval_stats monitor ))
      ~finish:(fun _ ->
        let recovery_ns = rebuild_ns make in
        ignore (Sys.opaque_identity monitor);
        unjournaled ~recovery_ns ~working_set_max:0)

let timed kind scale ~seed ~trace =
  match kind with
  | World.Tenants_read -> timed_read scale ~seed ~trace
  | World.Churn_journaled | World.Adversarial_enforce ->
    timed_dynamic kind scale ~seed ~trace

(* ---- bare cloud ------------------------------------------------------- *)

type bare = {
  b_lat : float array;
  b_sent : Request.t array;
  b_statuses : int array;
}

let bare (reference : reference) =
  let n = Array.length reference.requests in
  let lat = Array.make n 0. and statuses = Array.make n 0 in
  let sent = Array.make n (Request.make Meth.GET "/") in
  let i = ref 0 in
  let send cloud req =
    let start = now_ns () in
    let resp = Cloud.handle cloud req in
    lat.(!i) <- now_ns () -. start;
    statuses.(!i) <- resp.Response.status;
    sent.(!i) <- req;
    incr i
  in
  (match reference.kind with
   | World.Tenants_read ->
     let world = World.provision_read () in
     Array.iter (send world.World.r_cloud) reference.requests
   | World.Churn_journaled | World.Adversarial_enforce ->
     let world = World.provision_dynamic () in
     World.replay world reference.items ~send:(send world.World.d_cloud)
       ~barrier:ignore ~flush:ignore);
  { b_lat = lat; b_sent = sent; b_statuses = statuses }

(* ---- shard pool ------------------------------------------------------- *)

type pool = {
  p_verdicts : Outcome.conformance array;
  p_busy_ns : float;  (* summed handle_all time *)
  p_locks : int;  (* instrumented-lock acquisitions during the batches *)
  p_spawns : int;  (* domains spawned during the batches *)
  p_skew : float;  (* requests on the busiest shard over the mean *)
}

(* One shard per tenant: the dynamic workloads have a single tenant, so
   their pool serves on one shard and [handle_all] clamps the domain
   count to it. *)
let pool (reference : reference) ~domains ~trace =
  let verdicts = ref [] and busy = ref 0. and batches = ref 0 in
  let run pool batch =
    if batch <> [] then begin
      let start = now_ns () in
      let outs = Shard.handle_all ~domains pool batch in
      let stop = now_ns () in
      Option.iter (fun t -> Span.record_id t Span.Batch !batches start stop) trace;
      busy := !busy +. (stop -. start);
      incr batches;
      Array.iter (fun (o : Outcome.t) -> verdicts := o.Outcome.conformance :: !verdicts) outs
    end
  in
  let skew pool =
    let shards = Shard.shards pool in
    let counts = Array.make shards 0 in
    Array.iter
      (fun req ->
        let s = Shard.shard_of pool req in
        counts.(s) <- counts.(s) + 1)
      reference.requests;
    float_of_int (Array.fold_left max 0 counts * shards)
    /. float_of_int (Array.length reference.requests)
  in
  (* An empty batch spawns the pool's domains without touching any
     monitor; they are joined again at the end, so the single-domain
     passes never run beside parked domains. *)
  let serve pool feed =
    ignore (Shard.handle_all ~domains pool []);
    Gc.full_major ();
    let locks0 = Cm_core.Lockstat.total_acquisitions () in
    let spawns0 = Cm_core.Domain_pool.spawn_count () in
    feed ();
    let spawns = Cm_core.Domain_pool.spawn_count () - spawns0 in
    Cm_core.Domain_pool.shutdown_shared ();
    { p_verdicts = Array.of_list (List.rev !verdicts);
      p_busy_ns = !busy;
      p_locks = Cm_core.Lockstat.total_acquisitions () - locks0;
      p_spawns = spawns;
      p_skew = skew pool
    }
  in
  match reference.kind with
  | World.Tenants_read ->
    let world = World.provision_read () in
    let pool =
      Shard.create ~shards:World.tenants
        (World.read_config ~cache:Obs_cache.Cross_request world)
        (Cloud.handle world.World.r_cloud)
      |> ok_exn "pool"
    in
    let reqs = reference.requests in
    let n = Array.length reqs in
    serve pool (fun () ->
        let rec go i =
          if i < n then begin
            let len = min World.pool_batch (n - i) in
            run pool (Array.to_list (Array.sub reqs i len));
            go (i + len)
          end
        in
        go 0)
  | (World.Churn_journaled | World.Adversarial_enforce) as kind ->
    (* What queued up between two out-of-band steps is one batch. *)
    let world = World.provision_dynamic () in
    let pool =
      Shard.create ~shards:1
        (World.dyn_config ~mode:(World.mode_of kind) ~cache:Obs_cache.Per_request
           world)
        (Cloud.handle world.World.d_cloud)
      |> ok_exn "pool"
    in
    let queued = ref [] in
    serve pool (fun () ->
        World.replay world reference.items
          ~send:(fun req -> queued := req :: !queued)
          ~barrier:(fun () ->
            run pool (List.rev !queued);
            queued := [])
          ~flush:(fun () -> Shard.flush_caches pool))
