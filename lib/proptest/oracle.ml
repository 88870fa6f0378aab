module Ast = Cm_ocl.Ast
module Ty = Cm_ocl.Ty
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value
module Compile = Cm_ocl.Compile
module Pretty = Cm_ocl.Pretty
module Typecheck = Cm_ocl.Typecheck
module Contract = Cm_contracts.Contract
module Generate = Cm_contracts.Generate
module Runtime = Cm_contracts.Runtime
module BM = Cm_uml.Behavior_model
module Meth = Cm_http.Meth
module Security_table = Cm_rbac.Security_table
module Role_assignment = Cm_rbac.Role_assignment
module Subject = Cm_rbac.Subject
module Mutant = Cm_mutation.Mutant
module Scenario = Cm_mutation.Scenario
module Outcome = Cm_monitor.Outcome

type failure = {
  oracle : string;
  index : int;
  repr : string;
  detail : string;
  shrink_steps : int;
  entry : Corpus.entry;
}

type verdict = Pass | Fail of failure

type t = {
  name : string;
  weight : int;
  run_case : shrink:bool -> seed:int -> index:int -> size:int -> verdict;
  replay : Corpus.entry -> (unit, string) result;
}

(* Streams: every case splits its stream into independent substreams up
   front, so shrinking one component (say, the expression) re-evaluates
   the property against the *same* environments that exposed the
   failure. *)
let case_streams ~seed index =
  let rng = Rng.case ~seed index in
  let a = Rng.split rng in
  let b = Rng.split rng in
  (a, b)

(* ---- engine conformance ---- *)

(* The same discipline as test_compile.agree_on: one plan, compile both
   pipelines, then build frames. *)
let check_expr_on expr (env, pre) =
  let plan = Compile.plan () in
  let staged = Compile.compile plan expr in
  let staged_raw = Compile.compile_raw plan expr in
  let ienv =
    match pre with Some p -> Eval.with_pre ~pre:p env | None -> env
  in
  let frame =
    let fr = Compile.frame_of_env plan env in
    match pre with
    | Some p -> Compile.with_pre ~pre:(Compile.frame_of_env plan p) fr
    | None -> fr
  in
  let expected = Eval.eval ienv expr in
  let got = Compile.eval staged frame in
  let got_raw = Compile.eval staged_raw frame in
  if got <> expected then
    Some (Fmt.str "compiled %a <> interpreted %a" Value.pp got Value.pp expected)
  else if got_raw <> expected then
    Some
      (Fmt.str "raw-compiled %a <> interpreted %a" Value.pp got_raw Value.pp
         expected)
  else if
    not
      (Eval.verdict_equal (Eval.verdict ienv expr)
         (Compile.verdict staged frame))
  then Some "verdict mismatch"
  else None

let env_pairs rng n =
  List.init n (fun _ ->
      let env = Ocl_gen.gen_env rng ~size:0 in
      let pre =
        if Rng.bool rng then Some (Ocl_gen.gen_env rng ~size:0) else None
      in
      (env, pre))

let envs_per_case = 6

let check_expr_all expr envs =
  let rec first = function
    | [] -> None
    | pair :: rest ->
      (match check_expr_on expr pair with
       | Some detail -> Some detail
       | None -> first rest)
  in
  first envs

let shrink_failing_expr ~shrink expr fails =
  if not shrink then (expr, 0)
  else
    Shrink.minimize ~candidates:Ocl_gen.shrink_expr
      ~still_fails:(fun e -> fails e <> None)
      expr

let engine_run ~shrink ~seed ~index ~size =
  let rng_expr, rng_envs = case_streams ~seed index in
  let expr = Ocl_gen.gen_bool rng_expr ~size in
  let envs = env_pairs rng_envs envs_per_case in
  let fails e = check_expr_all e envs in
  match fails expr with
  | None -> Pass
  | Some detail0 ->
    let shrunk, steps = shrink_failing_expr ~shrink expr fails in
    let detail = Option.value ~default:detail0 (fails shrunk) in
    let repr = Pretty.to_string shrunk in
    Fail
      { oracle = "engine"; index; repr; detail; shrink_steps = steps;
        entry =
          Corpus.make ~oracle:"engine" ~seed ~index ~size [ ("expr", repr) ]
      }

let engine_replay (entry : Corpus.entry) =
  let rng_expr, rng_envs = case_streams ~seed:entry.seed entry.index in
  let expr_result =
    match List.assoc_opt "expr" entry.payload with
    | Some text ->
      (match Cm_ocl.Ocl_parser.parse text with
       | Ok expr -> Ok expr
       | Error err ->
         Error (Fmt.str "corpus expr does not parse: %a" Cm_ocl.Ocl_parser.pp_error err))
    | None -> Ok (Ocl_gen.gen_bool rng_expr ~size:entry.size)
  in
  match expr_result with
  | Error _ as err -> err
  | Ok expr ->
    (match check_expr_all expr (env_pairs rng_envs envs_per_case) with
     | None -> Ok ()
     | Some detail ->
       Error (Fmt.str "%s on %s" detail (Pretty.to_string expr)))

let engine =
  { name = "engine"; weight = 5; run_case = engine_run; replay = engine_replay }

(* ---- RBAC guard conformance ---- *)

let groups_pool =
  [ "proj_administrator"; "service_architect"; "business_analyst"; "auditors" ]

let roles_pool = [ "admin"; "member"; "user" ]
let rbac_meths = Meth.[ GET; PUT; POST; DELETE ]

let subset rng items = List.filter (fun _ -> Rng.bool rng) items

let rbac_case rng =
  let assignment =
    Role_assignment.of_list
      (List.concat_map
         (fun group ->
           List.filter_map
             (fun role ->
               if Rng.bool rng then Some (group, role) else None)
             roles_pool)
         groups_pool)
  in
  let table =
    List.filteri (fun i _ -> i >= 0) (* keep order deterministic *)
      (List.concat
         (List.mapi
            (fun i meth ->
              if Rng.int rng 4 = 0 then []
              else
                [ Security_table.entry ~resource:"volume"
                    ~req:(Printf.sprintf "f.%d" (i + 1))
                    meth (subset rng roles_pool)
                ])
            rbac_meths))
  in
  let subject = Subject.make "fuzz-user" (subset rng groups_pool) in
  (assignment, table, subject)

let rbac_repr assignment table subject =
  Fmt.str "assignment=[%s] entries=[%s] subject-groups=[%s]"
    (String.concat "; "
       (List.map
          (fun (g, r) -> g ^ "->" ^ r)
          (Role_assignment.to_list assignment)))
    (String.concat "; "
       (List.map
          (fun (e : Security_table.entry) ->
            Meth.to_string e.meth ^ ":" ^ String.concat "," e.roles)
          table))
    (String.concat "," subject.Subject.groups)

let rbac_check (assignment, table, subject) =
  let user_doc = Role_assignment.enrich subject assignment in
  let env = Eval.env_of_bindings [ ("user", user_doc) ] in
  let rec first = function
    | [] -> None
    | (e : Security_table.entry) :: rest ->
      let guard = Security_table.auth_guard e assignment in
      let interpreted = Eval.check env guard in
      let plan = Compile.plan () in
      let compiled_guard = Compile.compile plan guard in
      let compiled = Compile.check compiled_guard (Compile.frame_of_env plan env) in
      let allowed =
        Security_table.allowed table assignment ~resource:"volume"
          ~meth:e.meth subject
      in
      if interpreted <> compiled then
        Some
          (Fmt.str "%s guard: interpreted %a <> compiled %a"
             (Meth.to_string e.meth) Value.pp_tribool interpreted
             Value.pp_tribool compiled)
      else if (interpreted = Value.True) <> allowed then
        Some
          (Fmt.str "%s guard truth %a contradicts allowed=%b on %s"
             (Meth.to_string e.meth) Value.pp_tribool interpreted allowed
             (Pretty.to_string guard))
      else first rest
  in
  first table

let rbac_run ~shrink:_ ~seed ~index ~size =
  let rng, _ = case_streams ~seed index in
  let (assignment, table, subject) as case = rbac_case rng in
  match rbac_check case with
  | None -> Pass
  | Some detail ->
    Fail
      { oracle = "rbac"; index; detail;
        repr = rbac_repr assignment table subject;
        shrink_steps = 0;
        entry = Corpus.make ~oracle:"rbac" ~seed ~index ~size []
      }

let rbac_replay (entry : Corpus.entry) =
  let rng, _ = case_streams ~seed:entry.seed entry.index in
  match rbac_check (rbac_case rng) with
  | None -> Ok ()
  | Some detail -> Error detail

let rbac = { name = "rbac"; weight = 2; run_case = rbac_run; replay = rbac_replay }

(* ---- codegen round-trip ---- *)

(* Round-trip and translation failures only — the well-typedness
   self-check is deliberately *not* part of this predicate, so shrinking
   cannot walk out of the typed fragment and call it progress. *)
let codegen_fails expr =
  match Cm_ocl.Ocl_parser.parse (Pretty.to_string expr) with
  | Error err ->
    Some (Fmt.str "re-parse failed: %a" Cm_ocl.Ocl_parser.pp_error err)
  | Ok reparsed when not (Ast.equal reparsed expr) ->
    Some
      (Fmt.str "print/parse round-trip changed the expression: got %s"
         (Pretty.to_string reparsed))
  | Ok _ ->
    (match Cm_codegen.Ocl_to_python.translate expr with
     | exception exn ->
       Some ("python translation raised " ^ Printexc.to_string exn)
     | "" -> Some "empty python translation"
     | _ ->
       (match Cm_codegen.Ocl_to_python.variables expr with
        | exception exn ->
          Some ("python variable extraction raised " ^ Printexc.to_string exn)
        | _ -> None))

let cinder_security =
  { Generate.table = Security_table.cinder;
    assignment = Security_table.cinder_assignment
  }

let gen_machine rng ~size =
  let n_states = 2 + Rng.int rng 3 in
  let state_name i = Printf.sprintf "S%d" i in
  let small = max 2 (min 5 size) in
  let states =
    List.init n_states (fun i ->
        BM.state (state_name i) (Ocl_gen.gen_bool rng ~size:small))
  in
  let transitions =
    List.init
      (1 + Rng.int rng 5)
      (fun _ ->
        let guard =
          if Rng.bool rng then Some (Ocl_gen.gen_bool rng ~size:3) else None
        in
        let effect =
          if Rng.bool rng then Some (Ocl_gen.gen_bool rng ~size:3) else None
        in
        BM.transition ?guard ?effect
          ~source:(state_name (Rng.int rng n_states))
          ~target:(state_name (Rng.int rng n_states))
          (Rng.choose rng rbac_meths) "volume")
  in
  { BM.machine_name = "FuzzMachine"; context = "project"; initial = "S0";
    states; transitions
  }

let contract_exprs (c : Contract.t) =
  [ ("pre", c.Contract.pre);
    ("functional_pre", c.Contract.functional_pre);
    ("post", c.Contract.post)
  ]
  @ (match c.Contract.auth_guard with
     | Some g -> [ ("auth_guard", g) ]
     | None -> [])
  @ List.mapi
      (fun i (b : Contract.branch) ->
        (Printf.sprintf "branch-%d" i, b.Contract.branch_pre))
      c.Contract.branches

let codegen_case ~shrink ~seed ~index ~size rng =
  let fail detail expr steps =
    let repr = Pretty.to_string expr in
    Fail
      { oracle = "codegen"; index; repr; detail; shrink_steps = steps;
        entry =
          Corpus.make ~oracle:"codegen" ~seed ~index ~size [ ("expr", repr) ]
      }
  in
  if Rng.int rng 3 < 2 then begin
    (* Expression mode: generator self-check, then printer round-trips. *)
    let expr = Ocl_gen.gen_bool rng ~size in
    if not (Typecheck.well_typed Ocl_gen.signature expr) then
      fail "generator produced an ill-typed expression" expr 0
    else
      match codegen_fails expr with
      | None -> Pass
      | Some detail0 ->
        let shrunk, steps =
          if shrink then
            Shrink.minimize ~candidates:Ocl_gen.shrink_expr
              ~still_fails:(fun e -> codegen_fails e <> None)
              expr
          else (expr, 0)
        in
        let detail = Option.value ~default:detail0 (codegen_fails shrunk) in
        fail detail shrunk steps
  end
  else begin
    (* Machine mode: random state machine -> generated contracts -> every
       contract expression survives the printers. *)
    let machine = gen_machine rng ~size in
    let security = if Rng.bool rng then Some cinder_security else None in
    match Generate.all ?security machine with
    | Error msg ->
      Fail
        { oracle = "codegen"; index;
          repr = Fmt.str "machine with %d transitions" (List.length machine.BM.transitions);
          detail = "contract generation failed: " ^ msg;
          shrink_steps = 0;
          entry = Corpus.make ~oracle:"codegen" ~seed ~index ~size []
        }
    | Ok contracts ->
      let rec first = function
        | [] -> Pass
        | (part, expr) :: rest ->
          (match codegen_fails expr with
           | None -> first rest
           | Some detail ->
             let shrunk, steps =
               if shrink then
                 Shrink.minimize ~candidates:Ocl_gen.shrink_expr
                   ~still_fails:(fun e -> codegen_fails e <> None)
                   expr
               else (expr, 0)
             in
             let detail =
               Fmt.str "%s (in generated %s)"
                 (Option.value ~default:detail (codegen_fails shrunk))
                 part
             in
             fail detail shrunk steps)
      in
      first (List.concat_map contract_exprs contracts)
  end

let codegen_run ~shrink ~seed ~index ~size =
  let rng, _ = case_streams ~seed index in
  codegen_case ~shrink ~seed ~index ~size rng

let codegen_replay (entry : Corpus.entry) =
  match List.assoc_opt "expr" entry.payload with
  | Some text ->
    (match Cm_ocl.Ocl_parser.parse text with
     | Error err ->
       Error (Fmt.str "corpus expr does not parse: %a" Cm_ocl.Ocl_parser.pp_error err)
     | Ok expr ->
       (match codegen_fails expr with
        | None -> Ok ()
        | Some detail -> Error detail))
  | None ->
    let rng, _ = case_streams ~seed:entry.seed entry.index in
    (match
       codegen_case ~shrink:false ~seed:entry.seed ~index:entry.index
         ~size:entry.size rng
     with
     | Pass -> Ok ()
     | Fail f -> Error f.detail)

let codegen =
  { name = "codegen"; weight = 2; run_case = codegen_run;
    replay = codegen_replay
  }

(* ---- monitor conformance ---- *)

(* Undefined verdicts carry engine-specific fault-localization hints
   (the interpreter names the undefined atoms, the compiler does not);
   normalize them away — the *class* of the verdict must agree. *)
let conf_key = function
  | Outcome.Undefined _ -> "undefined"
  | c -> Outcome.conformance_to_string c

let verdict_key = function
  | None -> "-"
  | Some Eval.Holds -> "H"
  | Some Eval.Violated -> "V"
  | Some (Eval.Undefined_verdict _) -> "U"

let outcome_key (o : Outcome.t) =
  Fmt.str "%d|%s|%s|%s|%s" o.response.Cm_http.Response.status
    (conf_key o.conformance) (verdict_key o.pre_verdict)
    (verdict_key o.post_verdict)
    (String.concat "," o.covered_requirements)

(* The first position where two sequences of outcome keys or verdict
   lines disagree, named after the two runs that produced them. *)
let first_diff ~left ~right a b =
  let rec go n a b =
    match a, b with
    | x :: a', y :: b' ->
      if x = y then go (n + 1) a' b'
      else Fmt.str "exchange %d: %s [%s] vs %s [%s]" n left x right y
    | [], y :: _ -> Fmt.str "exchange %d only under %s: [%s]" n right y
    | x :: _, [] -> Fmt.str "exchange %d only under %s: [%s]" n left x
    | [], [] -> "lengths differ"
  in
  go 0 a b

let has_violation outcomes =
  List.exists (fun (o : Outcome.t) -> Outcome.is_violation o.conformance) outcomes

let mutant_engine index =
  if index land 1 = 0 then Runtime.Compiled else Runtime.Interpreted

let monitor_check ~index ~mutant trace =
  match
    ( Scenario.setup ~engine:Runtime.Interpreted (),
      Scenario.setup ~engine:Runtime.Compiled () )
  with
  | Error msgs, _ | _, Error msgs ->
    Some ("monitor setup failed: " ^ String.concat "; " msgs)
  | Ok ctx_i, Ok ctx_c ->
    let out_i = Trace_gen.run ctx_i trace in
    let out_c = Trace_gen.run ctx_c trace in
    let keys_i = List.map outcome_key out_i in
    let keys_c = List.map outcome_key out_c in
    if keys_i <> keys_c then
      Some
        ("engine verdicts diverge at "
        ^ first_diff ~left:"interpreted" ~right:"compiled" keys_i keys_c)
    else if has_violation out_c then
      Some "violation raised on the fault-free cloud"
    else begin
      match
        Scenario.setup ~engine:(mutant_engine index)
          ~faults:mutant.Mutant.faults ()
      with
      | Error msgs -> Some ("mutant setup failed: " ^ String.concat "; " msgs)
      | Ok ctx_m ->
        if has_violation (Trace_gen.run ctx_m trace) then None
        else Some ("mutant " ^ mutant.Mutant.name ^ " survived the trace")
    end

let monitor_noise_size size = min size 12

let monitor_run ~shrink ~seed ~index ~size =
  let rng_noise, rng_probe = case_streams ~seed index in
  let mutants = Mutant.all in
  let mutant = List.nth mutants (index mod List.length mutants) in
  let noise = Trace_gen.gen_noise rng_noise ~size:(monitor_noise_size size) in
  let tail =
    { Trace_gen.user = "alice"; op = Trace_gen.Drain }
    :: Trace_gen.probe_for mutant.Mutant.name rng_probe
  in
  let fails noise = monitor_check ~index ~mutant (noise @ tail) in
  match fails noise with
  | None -> Pass
  | Some detail0 ->
    let shrunk, steps =
      if shrink then
        (* Each evaluation spins up three clouds: keep the budget tight. *)
        Shrink.minimize ~budget:30 ~candidates:Shrink.shrink_list
          ~still_fails:(fun n -> fails n <> None)
          noise
      else (noise, 0)
    in
    let detail = Option.value ~default:detail0 (fails shrunk) in
    let trace = shrunk @ tail in
    Fail
      { oracle = "monitor"; index; detail; shrink_steps = steps;
        repr = Fmt.str "%s vs %s" mutant.Mutant.name (Trace_gen.to_string trace);
        entry =
          Corpus.make ~oracle:"monitor" ~seed ~index ~size
            [ ("mutant", mutant.Mutant.name);
              ("trace", Trace_gen.to_string trace)
            ]
      }

let monitor_replay (entry : Corpus.entry) =
  let mutant_name =
    match List.assoc_opt "mutant" entry.payload with
    | Some name -> name
    | None ->
      (List.nth Mutant.all (entry.index mod List.length Mutant.all)).Mutant.name
  in
  match Mutant.find mutant_name with
  | None -> Error ("unknown mutant " ^ mutant_name)
  | Some mutant ->
    let trace_result =
      match List.assoc_opt "trace" entry.payload with
      | Some text -> Trace_gen.of_string text
      | None ->
        let rng_noise, rng_probe = case_streams ~seed:entry.seed entry.index in
        let noise =
          Trace_gen.gen_noise rng_noise ~size:(monitor_noise_size entry.size)
        in
        Ok
          (noise
          @ ({ Trace_gen.user = "alice"; op = Trace_gen.Drain }
            :: Trace_gen.probe_for mutant.Mutant.name rng_probe))
    in
    (match trace_result with
     | Error msg -> Error ("corpus trace does not parse: " ^ msg)
     | Ok trace ->
       (match monitor_check ~index:entry.index ~mutant trace with
        | None -> Ok ()
        | Some detail -> Error detail))

let monitor =
  { name = "monitor"; weight = 1; run_case = monitor_run;
    replay = monitor_replay
  }

(* ---- chaos: verdict integrity under unreliable transport ---- *)

(* Position-wise comparison of the fault-free and chaos verdict
   sequences for the same trace.  Only steps where both runs issued the
   same request are comparable; a failure is two *definite* verdicts
   disagreeing (degrading to Undefined/Degraded/Monitor_error is the
   allowed escape hatch). *)
let chaos_flip ref_out chaos_out =
  let rec walk i refs steps =
    match refs, steps with
    | (r : Outcome.t) :: rtl, (s : Outcome.t) :: stl ->
      if
        r.request.Cm_http.Request.meth = s.request.Cm_http.Request.meth
        && r.request.Cm_http.Request.path = s.request.Cm_http.Request.path
        && Outcome.is_definite r.conformance
        && Outcome.is_definite s.conformance
        && r.conformance <> s.conformance
      then
        Some
          (Fmt.str "exchange %d (%s %s): fault-free %s, chaos %s" i
             (Meth.to_string r.request.Cm_http.Request.meth)
             r.request.Cm_http.Request.path
             (Outcome.conformance_to_string r.conformance)
             (Outcome.conformance_to_string s.conformance))
      else walk (i + 1) rtl stl
    | _, _ -> None
  in
  walk 0 ref_out chaos_out

let chaos_check ~mutant ~profile ~chaos_seed trace =
  match
    ( Scenario.setup ~faults:mutant.Mutant.faults (),
      Scenario.setup ~faults:mutant.Mutant.faults ~chaos:profile ~chaos_seed
        ~resilience:Cm_mutation.Campaign.chaos_policy () )
  with
  | Error msgs, _ | _, Error msgs ->
    Some ("chaos setup failed: " ^ String.concat "; " msgs)
  | Ok ref_ctx, Ok chaos_ctx ->
    let ref_out = Trace_gen.run ref_ctx trace in
    let chaos_out = Trace_gen.run chaos_ctx trace in
    (match chaos_flip ref_out chaos_out with
     | Some detail -> Some ("verdict flip under chaos: " ^ detail)
     | None ->
       if has_violation ref_out && not (has_violation chaos_out) then
         Some ("kill of " ^ mutant.Mutant.name ^ " lost under chaos")
       else None)

(* Everything a chaos case needs is re-derivable from (seed, index,
   size), so corpus entries carry no payload and replay regenerates. *)
let chaos_case_inputs ~seed ~index ~size =
  let rng_noise, rng_probe = case_streams ~seed index in
  let rng_profile = Rng.split rng_noise in
  let profile = Chaos_gen.gen_profile rng_profile ~size in
  let mutants = Mutant.all in
  let mutant = List.nth mutants (index mod List.length mutants) in
  let noise = Trace_gen.gen_noise rng_noise ~size:(monitor_noise_size size) in
  let trace =
    noise
    @ { Trace_gen.user = "alice"; op = Trace_gen.Drain }
      :: Trace_gen.probe_for mutant.Mutant.name rng_probe
  in
  (mutant, profile, trace, seed + (7919 * index))

let chaos_run ~shrink:_ ~seed ~index ~size =
  let mutant, profile, trace, chaos_seed =
    chaos_case_inputs ~seed ~index ~size
  in
  match chaos_check ~mutant ~profile ~chaos_seed trace with
  | None -> Pass
  | Some detail ->
    Fail
      { oracle = "chaos";
        index;
        detail;
        shrink_steps = 0;
        repr =
          Fmt.str "%s under %s vs %s" mutant.Mutant.name
            (Chaos_gen.describe profile)
            (Trace_gen.to_string trace);
        entry = Corpus.make ~oracle:"chaos" ~seed ~index ~size []
      }

let chaos_replay (entry : Corpus.entry) =
  let mutant, profile, trace, chaos_seed =
    chaos_case_inputs ~seed:entry.seed ~index:entry.index ~size:entry.size
  in
  match chaos_check ~mutant ~profile ~chaos_seed trace with
  | None -> Ok ()
  | Some detail -> Error detail

let chaos =
  { name = "chaos"; weight = 1; run_case = chaos_run; replay = chaos_replay }

(* ---- workload DSL ---- *)

(* Two halves.  Determinism: compiling the same (mix, seed) twice must
   yield bit-identical traces — the DSL draws only from its own
   splitmix stream, never from hidden global state.  Agreement:
   executing the compiled trace against the cross-service monitor must
   produce the same (hint-normalized) outcome sequence under the
   compiled engine and the interpreted reference, and the baseline (no
   mutant) must stay violation-free: every denial a mix provokes is one
   the cloud also refuses. *)

module Workload = Cm_workload.Workload

let workload_steps size = 8 + (4 * min size 10)

let workload_trace ~mix_name ~wl_seed ~steps =
  match mix_name with
  | "standard" -> Some Workload.standard_trace
  | "cross" -> Some Workload.cross_trace
  | "read-heavy" ->
    Some (Workload.read_heavy_trace ~steps ~victims:4 ~seed:wl_seed)
  | "churn-heavy" -> Some (Workload.churn_heavy_trace ~steps ~seed:wl_seed)
  | "adversarial" -> Some (Workload.adversarial_trace ~steps ~seed:wl_seed)
  | _ -> None

let workload_case_inputs ~seed ~index ~size =
  let mixes = Workload.mixes in
  let mix = List.nth mixes (index mod List.length mixes) in
  (mix.Workload.mix_name, seed + (7919 * index), workload_steps size)

let workload_check ~mix_name ~wl_seed ~steps =
  match workload_trace ~mix_name ~wl_seed ~steps with
  | None -> Some ("unknown workload mix " ^ mix_name)
  | Some trace ->
    let first = Workload.render trace in
    let again =
      Workload.render
        (Option.get (workload_trace ~mix_name ~wl_seed ~steps))
    in
    if first <> again then
      Some
        (Fmt.str "mix %s at seed %d does not recompile identically" mix_name
           wl_seed)
    else (
      match
        ( Scenario.setup_cross ~engine:Runtime.Interpreted (),
          Scenario.setup_cross ~engine:Runtime.Compiled () )
      with
      | Error msgs, _ | _, Error msgs ->
        Some ("workload setup failed: " ^ String.concat "; " msgs)
      | Ok ctx_i, Ok ctx_c ->
        let _ = Scenario.run_trace ctx_i trace in
        let _ = Scenario.run_trace ctx_c trace in
        let outcomes ctx = Cm_monitor.Monitor.outcomes ctx.Scenario.monitor in
        let keys ctx = List.map outcome_key (outcomes ctx) in
        let keys_i = keys ctx_i and keys_c = keys ctx_c in
        if keys_i <> keys_c then
          Some
            (Fmt.str "mix %s seed %d: engine verdicts diverge at %s" mix_name
               wl_seed
               (first_diff ~left:"interpreted" ~right:"compiled" keys_i keys_c))
        else (
          match Cm_monitor.Report.violations (outcomes ctx_c) with
          | [] -> None
          | v :: _ ->
            Some
              (Fmt.str "mix %s seed %d: baseline violation on %s %s" mix_name
                 wl_seed
                 (Cm_http.Meth.to_string
                    v.Outcome.request.Cm_http.Request.meth)
                 v.Outcome.request.Cm_http.Request.path)))

let workload_run ~shrink ~seed ~index ~size =
  let mix_name, wl_seed, steps0 = workload_case_inputs ~seed ~index ~size in
  let fails steps = workload_check ~mix_name ~wl_seed ~steps in
  match fails steps0 with
  | None -> Pass
  | Some detail0 ->
    (* Shrinking halves the step budget while the failure persists;
       scripted mixes ignore the budget, so this terminates quickly. *)
    let rec minimize steps count =
      let next = steps / 2 in
      if next >= 1 && fails next <> None then minimize next (count + 1)
      else (steps, count)
    in
    let steps, shrink_steps =
      if shrink then minimize steps0 0 else (steps0, 0)
    in
    let detail = Option.value ~default:detail0 (fails steps) in
    Fail
      { oracle = "workload"; index; detail; shrink_steps;
        repr = Fmt.str "%s seed=%d steps=%d" mix_name wl_seed steps;
        entry =
          Corpus.make ~oracle:"workload" ~seed ~index ~size
            [ ("mix", mix_name); ("wl_seed", string_of_int wl_seed);
              ("steps", string_of_int steps)
            ]
      }

let workload_replay (entry : Corpus.entry) =
  let d_name, d_seed, d_steps =
    workload_case_inputs ~seed:entry.seed ~index:entry.index ~size:entry.size
  in
  let lookup key default parse =
    match List.assoc_opt key entry.payload with
    | Some v -> (try parse v with _ -> default)
    | None -> default
  in
  let mix_name = lookup "mix" d_name Fun.id in
  let wl_seed = lookup "wl_seed" d_seed int_of_string in
  let steps = lookup "steps" d_steps int_of_string in
  match workload_check ~mix_name ~wl_seed ~steps with
  | None -> Ok ()
  | Some detail -> Error detail

let workload =
  { name = "workload"; weight = 1; run_case = workload_run;
    replay = workload_replay
  }

(* ---- durable journal ---- *)

(* Record a workload mix through the journaled monitor, then replay the
   scanned journal against a fresh same-seed cloud.  Two properties:
   bit-identity — the compiled replay's verdict lines must equal the
   journaled ones, so any hidden nondeterminism in tokens, sequence
   numbers or evaluation order shows up as the first diverging line;
   and agreement — a replay under the interpreted reference engine must
   produce the same (hint-normalized) outcomes as the compiled one. *)

let journal_check ~mix_name ~wl_seed ~steps =
  match workload_trace ~mix_name ~wl_seed ~steps with
  | None -> Some ("unknown workload mix " ^ mix_name)
  | Some trace ->
    (match Scenario.setup_journaled ~cross:true () with
     | Error msgs ->
       Some ("journal setup failed: " ^ String.concat "; " msgs)
     | Ok jctx ->
       let _ = Scenario.jrun_trace jctx trace in
       Cm_journal.Jmonitor.sync jctx.Scenario.jmon;
       let events = Scenario.journal_events jctx in
       let recorded = Cm_journal.Jmonitor.journaled_verdict_lines events in
       let replay engine =
         Scenario.replay_journal ~cross:true ~engine events
       in
       (match replay Runtime.Compiled, replay Runtime.Interpreted with
        | Error msgs, _ | _, Error msgs ->
          Some
            (Fmt.str "mix %s seed %d: replay failed: %s" mix_name wl_seed
               (String.concat "; " msgs))
        | Ok jm_c, Ok jm_i ->
          let lines = Cm_journal.Jmonitor.verdict_lines jm_c in
          let keys jm =
            List.map outcome_key
              (Cm_monitor.Monitor.outcomes (Cm_journal.Jmonitor.monitor jm))
          in
          let keys_i = keys jm_i and keys_c = keys jm_c in
          if lines <> recorded then
            Some
              (Fmt.str "mix %s seed %d: replay diverges at %s" mix_name
                 wl_seed
                 (first_diff ~left:"recording" ~right:"replay" recorded lines))
          else if keys_i <> keys_c then
            Some
              (Fmt.str "mix %s seed %d: replayed engine verdicts diverge at %s"
                 mix_name wl_seed
                 (first_diff ~left:"interpreted" ~right:"compiled" keys_i
                    keys_c))
          else None))

let journal_run ~shrink ~seed ~index ~size =
  let mix_name, wl_seed, steps0 = workload_case_inputs ~seed ~index ~size in
  let fails steps = journal_check ~mix_name ~wl_seed ~steps in
  match fails steps0 with
  | None -> Pass
  | Some detail0 ->
    let rec minimize steps count =
      let next = steps / 2 in
      if next >= 1 && fails next <> None then minimize next (count + 1)
      else (steps, count)
    in
    let steps, shrink_steps =
      if shrink then minimize steps0 0 else (steps0, 0)
    in
    let detail = Option.value ~default:detail0 (fails steps) in
    Fail
      { oracle = "journal"; index; detail; shrink_steps;
        repr = Fmt.str "%s seed=%d steps=%d" mix_name wl_seed steps;
        entry =
          Corpus.make ~oracle:"journal" ~seed ~index ~size
            [ ("mix", mix_name); ("wl_seed", string_of_int wl_seed);
              ("steps", string_of_int steps)
            ]
      }

let journal_replay (entry : Corpus.entry) =
  let d_name, d_seed, d_steps =
    workload_case_inputs ~seed:entry.seed ~index:entry.index ~size:entry.size
  in
  let lookup key default parse =
    match List.assoc_opt key entry.payload with
    | Some v -> (try parse v with _ -> default)
    | None -> default
  in
  let mix_name = lookup "mix" d_name Fun.id in
  let wl_seed = lookup "wl_seed" d_seed int_of_string in
  let steps = lookup "steps" d_steps int_of_string in
  match journal_check ~mix_name ~wl_seed ~steps with
  | None -> Ok ()
  | Some detail -> Error detail

let journal =
  { name = "journal"; weight = 1; run_case = journal_run;
    replay = journal_replay
  }

(* ---- lazy: lazy observation against the forced frame ---- *)

module Chaos = Cm_cloudsim.Chaos
module Monitor = Cm_monitor.Monitor

(* Exchanges compared, and the permitted differences among them (lazy
   definite; lazy indefinite too), over every lazy case run by this
   process. *)
let lazy_compared = ref 0
let lazy_settled = ref 0
let lazy_both_indefinite = ref 0

let lazy_differences () =
  (!lazy_compared, !lazy_settled, !lazy_both_indefinite)

(* A chaos transport whose faults are keyed by the request: each call
   draws from a fresh stream seeded by (case seed, exchange, method,
   path, credentials, occurrence within the exchange).  The same request
   meets the same fault in the lazy and the forced run, however many
   other requests either run sends — so the lazy run, whose
   observation GETs are a subset of the forced run's, reads exactly the
   responses the forced run read for them.  Stale reads need a history
   both runs share, so this transport never serves one; the chaos
   oracle covers them. *)
let keyed_chaos ~seed profile clock inner =
  let exchange = ref 0 in
  let seen = Hashtbl.create 16 in
  let backend (req : Cm_http.Request.t) =
    let header name =
      Option.value ~default:""
        (Cm_http.Headers.get name req.Cm_http.Request.headers)
    in
    let key =
      String.concat "|"
        [ string_of_int !exchange;
          Meth.to_string req.Cm_http.Request.meth;
          req.Cm_http.Request.path;
          header "X-Auth-Token";
          header "X-Subject-Token"
        ]
    in
    let n = Option.value ~default:0 (Hashtbl.find_opt seen key) in
    Hashtbl.replace seen key (n + 1);
    let draw = Hashtbl.hash (Printf.sprintf "%d|%s|%d" seed key n) in
    Chaos.backend (Chaos.create ~seed:draw profile clock inner) req
  in
  let next_exchange () =
    incr exchange;
    Hashtbl.reset seen
  in
  (backend, next_exchange)

(* Everything a client or operator sees of an exchange. *)
let visible_key (o : Outcome.t) =
  Fmt.str "%d|%s|%s|%s|%s" o.response.Cm_http.Response.status
    (Outcome.conformance_to_string o.conformance)
    o.detail
    (String.concat "," o.covered_requirements)
    (match o.response.Cm_http.Response.body with
     | Some body -> Cm_json.Printer.to_string body
     | None -> "-")

(* The only difference laziness may make: the forced run met a failed
   observation (Degraded when it raised, Undefined when it answered
   5xx).  The lazy run reads a subset of the same responses, so it
   either never needed that observation and Kleene logic settled its
   verdict without it, or it met a failure too — possibly a different
   one first, since it reads in another order.  A definite forced
   verdict must be matched exactly. *)
let forced_indefinite (forced : Outcome.t) =
  match forced.Outcome.conformance with
  | Outcome.Undefined _ | Outcome.Degraded _ -> true
  | _ -> false

let lazy_check ~mode ~mutant ~profile ~chaos_seed trace =
  let world () =
    let next = ref ignore in
    let transport clock inner =
      let backend, next_exchange =
        keyed_chaos ~seed:chaos_seed profile clock inner
      in
      next := next_exchange;
      backend
    in
    Result.map
      (fun ctx ->
        (ctx, fun handle monitor req -> !next (); handle monitor req))
      (Scenario.setup ~mode ~faults:mutant.Mutant.faults ~transport ())
  in
  match world (), world () with
  | Error msgs, _ | _, Error msgs ->
    Some ("lazy setup failed: " ^ String.concat "; " msgs)
  | Ok (lazy_ctx, lazy_step), Ok (forced_ctx, forced_step) ->
    let lazy_out =
      Trace_gen.run ~handle:(lazy_step Monitor.handle) lazy_ctx trace
    in
    let forced_out =
      Trace_gen.run ~handle:(forced_step Monitor.handle_forced) forced_ctx trace
    in
    (* After a permitted difference the two clouds may have diverged
       (the forced run degraded before forwarding), so the comparison
       stops there. *)
    let rec walk i = function
      | (l : Outcome.t) :: ls, (f : Outcome.t) :: fs ->
        incr lazy_compared;
        let lk = visible_key l and fk = visible_key f in
        if String.equal lk fk then walk (i + 1) (ls, fs)
        else if forced_indefinite f then begin
          incr
            (if Outcome.is_definite l.Outcome.conformance then lazy_settled
             else lazy_both_indefinite);
          None
        end
        else Some (Fmt.str "exchange %d: lazy [%s] vs forced [%s]" i lk fk)
      | [], [] -> None
      | _ -> Some "lazy and forced runs served different numbers of exchanges"
    in
    walk 0 (lazy_out, forced_out)

(* Everything re-derivable from (seed, index, size): every named chaos
   profile (fault-free included), both modes, every mutant. *)
let lazy_case_inputs ~seed ~index ~size =
  let rng_noise, rng_probe = case_streams ~seed index in
  let profiles = Chaos.profiles in
  let profile = List.nth profiles (index / 2 mod List.length profiles) in
  let mode = if index land 1 = 0 then Monitor.Oracle else Monitor.Enforce in
  let mutants = Mutant.all in
  let mutant = List.nth mutants (index / 10 mod List.length mutants) in
  let noise = Trace_gen.gen_noise rng_noise ~size:(monitor_noise_size size) in
  let trace =
    noise
    @ { Trace_gen.user = "alice"; op = Trace_gen.Drain }
      :: Trace_gen.probe_for mutant.Mutant.name rng_probe
  in
  (mode, mutant, profile, trace, seed + (7919 * index))

let mode_name = function Monitor.Oracle -> "oracle" | Monitor.Enforce -> "enforce"

let lazy_run ~shrink:_ ~seed ~index ~size =
  let mode, mutant, profile, trace, chaos_seed =
    lazy_case_inputs ~seed ~index ~size
  in
  match lazy_check ~mode ~mutant ~profile ~chaos_seed trace with
  | None -> Pass
  | Some detail ->
    Fail
      { oracle = "lazy";
        index;
        detail;
        shrink_steps = 0;
        repr =
          Fmt.str "%s, %s mode, %s vs %s" mutant.Mutant.name (mode_name mode)
            profile.Chaos.name (Trace_gen.to_string trace);
        entry = Corpus.make ~oracle:"lazy" ~seed ~index ~size []
      }

let lazy_replay (entry : Corpus.entry) =
  let mode, mutant, profile, trace, chaos_seed =
    lazy_case_inputs ~seed:entry.seed ~index:entry.index ~size:entry.size
  in
  match lazy_check ~mode ~mutant ~profile ~chaos_seed trace with
  | None -> Ok ()
  | Some detail -> Error detail

let lazy_observation =
  { name = "lazy"; weight = 1; run_case = lazy_run; replay = lazy_replay }

let all =
  [ engine; rbac; codegen; monitor; chaos; workload; journal ]

let every = all @ [ lazy_observation ]
let find name = List.find_opt (fun o -> o.name = name) every
