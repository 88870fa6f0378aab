(* Differential tests for the staged compiler (Cm_ocl.Compile): on every
   generated Cinder and Glance contract, the compiled closures must
   produce the same values and verdicts as the tree-walking interpreter
   (Cm_ocl.Eval) — including in states with missing bindings, wrongly
   typed documents and Undef-producing subexpressions, and with nested
   [pre(...)] under an attached pre-state. *)

module Ast = Cm_ocl.Ast
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value
module Compile = Cm_ocl.Compile
module Contract = Cm_contracts.Contract
module Generate = Cm_contracts.Generate
module Runtime = Cm_contracts.Runtime
module BM = Cm_uml.Behavior_model
module Json = Cm_json.Json

let ocl = Cm_ocl.Ocl_parser.parse_exn

let cinder_security =
  { Generate.table = Cm_rbac.Security_table.cinder;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let glance_security =
  { Generate.table = Cm_rbac.Security_table.glance;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let contracts_of label security behavior =
  match Generate.all ~security behavior with
  | Ok cs -> cs
  | Error msg -> Alcotest.failf "%s contract generation failed: %s" label msg

let cinder_contracts =
  contracts_of "cinder" cinder_security Cm_uml.Cinder_model.behavior

let glance_contracts =
  contracts_of "glance" glance_security Cm_uml.Glance_model.behavior

let all_contracts =
  List.map (fun c -> ("cinder", c)) cinder_contracts
  @ List.map (fun c -> ("glance", c)) glance_contracts

(* ---- the environment grid ---- *)

let item i status =
  Json.obj
    [ ("id", Json.string (Printf.sprintf "id-%d" i));
      ("name", Json.string "thing");
      ("status", Json.string status);
      ("visibility", Json.string (if i mod 2 = 0 then "private" else "public"));
      ("size", Json.int (i mod 4))
    ]

let statuses = [| "available"; "in-use"; "error"; "queued"; "active" |]

let listing n =
  Json.list (List.init n (fun i -> item i statuses.(i mod Array.length statuses)))

let container i =
  Json.obj
    [ ("id", Json.string "p");
      ("volumes", listing (i mod 4));
      ("images", listing ((i + 1) mod 4));
      ("snapshots", listing (i mod 2));
      ("backups", listing (i mod 3))
    ]

let subject i =
  let groups =
    match i mod 3 with
    | 0 -> [ "proj_administrator" ]
    | 1 -> [ "proj_member"; "other" ]
    | _ -> []
  in
  Json.obj
    [ ("name", Json.string "alice");
      ("groups", Json.list (List.map Json.string groups));
      ("roles", Json.list (List.map Json.string groups));
      ("role", Json.string (match groups with g :: _ -> g | [] -> ""));
      ("id", Json.obj [ ("groups", Json.string (match groups with g :: _ -> g | [] -> "")) ])
    ]

let quota i =
  Json.obj
    [ ("id", Json.string "p");
      ("volumes", Json.int (i mod 4));
      ("images", Json.int (i mod 4))
    ]

(* Candidate documents for one variable: plausible states of varying
   fullness, then degenerate ones (empty object, null, wrong type) that
   drive navigations and comparisons to Undef. *)
let candidates var =
  let valid i =
    match var with
    | "project" -> container i
    | "user" -> subject i
    | "quota_sets" -> quota i
    | _ -> item i statuses.(i mod Array.length statuses)
  in
  [ Some (valid 0); Some (valid 1); Some (valid 2); Some (valid 3);
    Some (Json.obj []); Some Json.Null; Some (Json.int 7);
    None  (* unbound: Eval.lookup yields Undef *)
  ]

(* Deterministic sampling: seed [s] assigns variable [k] its candidate
   [(s + 3k) mod n], so consecutive seeds move every variable through
   valid, degenerate and missing states in different combinations. *)
let env_for_seed vars s =
  Eval.env_of_bindings
    (List.concat
       (List.mapi
          (fun k var ->
            let cands = candidates var in
            match List.nth cands ((s + (3 * k)) mod List.length cands) with
            | Some doc -> [ (var, doc) ]
            | None -> [])
          vars))

let seeds = List.init 16 (fun s -> s)

let contract_vars (c : Contract.t) =
  let exprs =
    (c.Contract.pre :: c.Contract.functional_pre :: c.Contract.post
     :: Option.to_list c.Contract.auth_guard)
    @ List.map (fun (b : Contract.branch) -> b.Contract.branch_pre)
        c.Contract.branches
  in
  List.sort_uniq String.compare (List.concat_map Ast.free_vars exprs)

let grid c = List.map (env_for_seed (contract_vars c)) seeds

(* ---- expression-level agreement ---- *)

(* One shared plan per family, frames built only after all compiles —
   the discipline Compile documents. *)
let agree_on ?pre label env expr =
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
    Alcotest.failf "%s: compiled %a <> interpreted %a on %s" label Value.pp got
      Value.pp expected
      (Cm_ocl.Pretty.to_string expr);
  if got_raw <> expected then
    Alcotest.failf "%s: raw-compiled %a <> interpreted %a on %s" label
      Value.pp got_raw Value.pp expected
      (Cm_ocl.Pretty.to_string expr);
  if not (Eval.verdict_equal (Eval.verdict ienv expr) (Compile.verdict staged frame))
  then
    Alcotest.failf "%s: verdict mismatch on %s" label
      (Cm_ocl.Pretty.to_string expr)

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

let expr_differential_tests =
  List.map
    (fun (service, (c : Contract.t)) ->
      let name =
        Fmt.str "%s %a: compiled = interpreted on the state grid" service
          BM.pp_trigger c.Contract.trigger
      in
      Alcotest.test_case name `Quick (fun () ->
          let envs = grid c in
          List.iteri
            (fun i env ->
              let pre_env = List.nth envs ((i + 5) mod List.length envs) in
              List.iter
                (fun (part, expr) ->
                  let label = Fmt.str "%s/%s/seed-%d" service part i in
                  (* no pre-state attached: pre(...) is Undef on both *)
                  agree_on label env expr;
                  (* with a pre-state from a different grid point *)
                  agree_on ~pre:pre_env label env expr)
                (contract_exprs c))
            envs))
    all_contracts

(* ---- handwritten corners: nested pre, iterators, Undef arithmetic ---- *)

let corner_exprs =
  [ "pre(project.volumes->size()) = project.volumes->size()";
    "pre(pre(project.volumes->size())) >= 0";
    "pre(project.volumes->size() + 1) > project.volumes->size()";
    "project.volumes->select(v | v.status = 'available')->size() >= 0";
    "project.volumes->forAll(v | v.size > 0)";
    "project.volumes->exists(v | v.status = volume.status)";
    "project.volumes->reject(v | v.status = 'error')->size() \
     <= project.volumes->size()";
    "project.volumes->collect(v | v.status)->includes('in-use')";
    "project.volumes->one(v | v.status = 'in-use')";
    "project.volumes->any(v | v.size > 1).status = 'in-use'";
    "project.volumes->isUnique(v | v.id)";
    "user.groups->includes('proj_administrator') or \
     user.groups->includes('proj_member')";
    "quota_sets.volumes > project.volumes->size()";
    "volume.status <> 'in-use' and volume.status <> 'error'";
    "volume.size + quota_sets.volumes >= 0";
    "not (volume.status = 'error') implies volume.size >= 0";
    "volume.missing_member = 1";
    "volume.missing_member->size() = 0"
  ]

let corner_tests =
  [ Alcotest.test_case "handwritten corners across the grid" `Quick (fun () ->
        let vars = [ "project"; "user"; "quota_sets"; "volume" ] in
        List.iter
          (fun text ->
            let expr = ocl text in
            List.iter
              (fun s ->
                let env = env_for_seed vars s in
                let pre_env = env_for_seed vars (s + 7) in
                agree_on (Fmt.str "corner/seed-%d" s) env expr;
                agree_on ~pre:pre_env (Fmt.str "corner+pre/seed-%d" s) env
                  expr)
              seeds)
          corner_exprs)
  ]

(* ---- runtime-level agreement: Interpreted vs Compiled engines ---- *)

(* Hand-built contracts, made with the recipe Generate uses: each branch
   guard is [guard ∧ auth], the precondition their disjunction, the
   functional precondition the same disjunction without [auth]. *)
let hand_contract ~resource ?auth branches =
  let simplify = Cm_ocl.Simplify.simplify in
  let auth = Option.map ocl auth in
  let branch auth (guard, effect, requirements) =
    { Contract.source = "s";
      target = "t";
      branch_pre = simplify (Ast.conj (ocl guard :: Option.to_list auth));
      branch_post = ocl effect;
      branch_requirements = requirements
    }
  in
  let branches_with = List.map (branch auth) branches in
  let functional = List.map (branch None) branches in
  { Contract.trigger = { BM.meth = Cm_http.Meth.GET; resource };
    pre = simplify (Contract.pre_of_branches branches_with);
    post = simplify (Contract.post_of_branches branches_with);
    functional_pre = simplify (Contract.pre_of_branches functional);
    auth_guard = auth;
    branches = branches_with;
    requirements =
      List.sort_uniq String.compare
        (List.concat_map (fun (_, _, r) -> r) branches)
  }

let volume_branches =
  [ ("project.volumes->size() >= 1", "project.volumes->size() >= 1", [ "h.1" ]);
    ("project.volumes->size() = 0", "project.volumes->size() = 0", [ "h.2" ])
  ]

(* the authorization guard is false for a subject in no group *)
let auth_false_contract =
  hand_contract ~resource:"auth_false"
    ~auth:"user.groups->includes('proj_administrator')" volume_branches

(* an authorization guard the branch guards do not conjoin, which
   turns the authorization-first shortcut off *)
let auth_apart_contract =
  { (hand_contract ~resource:"auth_apart" volume_branches) with
    Contract.auth_guard = Some (ocl "user.groups->includes('proj_administrator')")
  }

(* the authorization guard is undefined for a non-numeric level *)
let auth_unknown_contract =
  hand_contract ~resource:"auth_unknown" ~auth:"user.level > 2"
    volume_branches

(* snapshot slots that match no branch guard: a pre() in a branch
   effect, and a guard that itself reads pre() — which the pre-phase
   evaluates without a pre-state but the snapshot evaluates in one *)
let unmatched_slot_contract =
  hand_contract ~resource:"unmatched_slot"
    ~auth:"user.groups->includes('proj_administrator')"
    [ ( "project.volumes->size() >= 1",
        "project.volumes->size() = pre(project.volumes->size())",
        [ "h.1" ] );
      ("pre(project.id) = 'p'", "project.id = 'p'", [ "h.2" ])
    ]

(* effects that navigate a pre-state root: Lean rewrites [pre(project)]
   to a [__preN] slot the post-check writes, so the compiled
   [__pre0.volumes] must read that written value, not the observation *)
let pre_root_contract =
  hand_contract ~resource:"pre_root"
    ~auth:"user.groups->includes('proj_administrator')"
    [ ( "project.volumes->size() >= 1",
        "pre(project).volumes->size() = project.volumes->size()",
        [ "h.1" ] );
      ("project.volumes->size() = 0", "project@pre.id = project.id", [ "h.2" ])
    ]

let hand_contracts =
  [ ("hand", auth_false_contract);
    ("hand", auth_unknown_contract);
    ("hand", unmatched_slot_contract);
    ("hand", pre_root_contract)
  ]

let hand_env ~volumes user =
  Eval.env_of_bindings
    [ ("project", container volumes); ("quota_sets", quota 3); ("user", user) ]

let nobody = Json.obj [ ("groups", Json.list []) ]
let admin = Json.obj [ ("groups", Json.list [ Json.string "proj_administrator" ]) ]
let level l = Json.obj [ ("level", l) ]

let hand_envs =
  List.concat_map
    (fun user -> [ hand_env ~volumes:0 user; hand_env ~volumes:2 user ])
    [ nobody; admin; level (Json.int 5); level (Json.int 1);
      level (Json.string "high")
    ]

let verdict_t = Alcotest.testable Eval.pp_verdict Eval.verdict_equal
let tribool = Alcotest.testable Value.pp_tribool ( = )

(* A Lean snapshot as the bytes the journal would persist. *)
let snapshot_text snapshot =
  Runtime.snapshot_values snapshot
  |> Option.map
       (List.map (fun (name, value) ->
            name ^ "="
            ^
            match value with
            | Value.Undef -> "undefined"
            | Value.Json j -> Cm_json.Printer.to_string j))

(* the environments are prebuilt: no read costs a GET *)
let cost = Runtime.written_order

let pre_phase prepared env =
  Runtime.pre_phase prepared (Runtime.observe prepared env)

(* Every pre-phase answer of the compiled engine — derived from one pass
   over the branch guards — against the interpreter's independent
   evaluation of each original expression, then the postcondition over
   the two snapshots. *)
let engines_agree label pi pc pre_env post_env =
  let ri = pre_phase pi pre_env and rc = pre_phase pc pre_env in
  Alcotest.check verdict_t (label ^ " check_pre") ri.Runtime.verdict
    rc.Runtime.verdict;
  Alcotest.(check (list string))
    (label ^ " covered") ri.Runtime.covered rc.Runtime.covered;
  Alcotest.(check (option tribool))
    (label ^ " auth") ri.Runtime.auth rc.Runtime.auth;
  Alcotest.check tribool (label ^ " functional")
    (Lazy.force ri.Runtime.functional)
    (Lazy.force rc.Runtime.functional);
  let si = Lazy.force ri.Runtime.snapshot
  and sc = Lazy.force rc.Runtime.snapshot in
  Alcotest.(check (option (list string)))
    (label ^ " snapshot") (snapshot_text si) (snapshot_text sc);
  Alcotest.check verdict_t (label ^ " check_post")
    (Runtime.check_post pi si post_env)
    (Runtime.check_post pc sc post_env)

let runtime_differential_tests =
  List.map
    (fun (service, (c : Contract.t)) ->
      let name =
        Fmt.str "%s %a: Runtime engines agree (Lean and Full)" service
          BM.pp_trigger c.Contract.trigger
      in
      Alcotest.test_case name `Quick (fun () ->
          let envs =
            if service = "hand" then grid c @ hand_envs else grid c
          in
          List.iter
            (fun strategy ->
              let pi = Runtime.prepare ~strategy ~engine:Interpreted ~cost c in
              let pc = Runtime.prepare ~strategy ~engine:Compiled ~cost c in
              List.iteri
                (fun i pre_env ->
                  let post_env =
                    List.nth envs ((i + 1) mod List.length envs)
                  in
                  engines_agree (Fmt.str "seed-%d" i) pi pc pre_env post_env)
                envs)
            [ Runtime.Lean; Runtime.Full ]))
    (all_contracts @ hand_contracts)

(* The hand-built contracts do reach the cases they are built for. *)
let pre_phase_case_tests =
  let compiled c = Runtime.prepare ~engine:Compiled ~cost c in
  [ Alcotest.test_case "auth guard false: functional evaluated on its own"
      `Quick (fun () ->
        let r = pre_phase (compiled auth_false_contract) (hand_env ~volumes:2 nobody) in
        Alcotest.check verdict_t "pre" Eval.Violated r.Runtime.verdict;
        Alcotest.(check (option tribool)) "auth" (Some Value.False)
          r.Runtime.auth;
        Alcotest.check tribool "functional" Value.True (Lazy.force r.Runtime.functional));
    Alcotest.test_case "auth guard unknown: functional evaluated on its own"
      `Quick (fun () ->
        let r =
          pre_phase (compiled auth_unknown_contract)
            (hand_env ~volumes:0 (level (Json.string "high")))
        in
        Alcotest.(check (option tribool)) "auth" (Some Value.Unknown)
          r.Runtime.auth;
        Alcotest.check tribool "functional" Value.True (Lazy.force r.Runtime.functional);
        Alcotest.(check bool) "pre undefined" true
          (match r.Runtime.verdict with
           | Eval.Undefined_verdict _ -> true
           | Eval.Holds | Eval.Violated -> false));
    Alcotest.test_case "auth guard true: functional is the precondition"
      `Quick (fun () ->
        let r = pre_phase (compiled auth_false_contract) (hand_env ~volumes:0 admin) in
        Alcotest.check verdict_t "pre" Eval.Holds r.Runtime.verdict;
        Alcotest.check tribool "functional" Value.True (Lazy.force r.Runtime.functional);
        Alcotest.(check (list string)) "covered" [ "h.2" ] r.Runtime.covered);
    Alcotest.test_case "pre() slots matching no guard are evaluated" `Quick
      (fun () ->
        let p = compiled unmatched_slot_contract in
        let env = hand_env ~volumes:2 admin in
        let r = pre_phase p env in
        let before = (Runtime.eval_stats p).Runtime.evals in
        (* the snapshot is taken when it is forced *)
        ignore (Lazy.force (pre_phase p env).Runtime.snapshot);
        (* two guards, the authorization guard, and the guard reading
           pre() plus the effect's pre(size): two unmatched slots *)
        Alcotest.(check int) "evals" 5
          ((Runtime.eval_stats p).Runtime.evals - before);
        Alcotest.(check (option (list string))) "snapshot"
          (Some [ "__pre0=true"; "__pre1=2"; "__pre2=true" ])
          (snapshot_text (Lazy.force r.Runtime.snapshot)));
    Alcotest.test_case "auth guard false survives a failed guard read" `Quick
      (fun () ->
        (* the subject observes; every read of [project] fails *)
        let src = Compile.source_of_env (hand_env ~volumes:2 nobody) in
        let fail () = raise (Compile.Unobservable "project") in
        let failing =
          { Compile.root =
              (fun name -> if name = "project" then fail () else src.Compile.root name);
            member =
              (fun name field ->
                if name = "project" then fail () else src.Compile.member name field);
            materialize = fail
          }
        in
        let p = compiled auth_apart_contract in
        let r = Runtime.pre_phase p (Runtime.observe_source p failing) in
        Alcotest.(check (option tribool)) "auth" (Some Value.False)
          r.Runtime.auth;
        Alcotest.(check bool) "pre undefined" true
          (match r.Runtime.verdict with
           | Eval.Undefined_verdict _ -> true
           | Eval.Holds | Eval.Violated -> false);
        Alcotest.(check (list string)) "covered" [] r.Runtime.covered)
  ]

(* ---- Prim collection kernels over degenerate receivers ----

   [x] is unbound (Undef), a scalar, an empty list, or a list holding
   null; each kernel is pinned to its value and the two evaluators must
   agree on it. *)

let kernel_receivers =
  [ ("undef", None);
    ("scalar", Some (Json.int 7));
    ("empty", Some (Json.list []));
    ("with-null", Some (Json.list [ Json.null; Json.int 0 ]))
  ]

let kernel_cases =
  [ ("x->size()", [ "0"; "1"; "0"; "2" ]);
    ("x->includes(null)", [ "false"; "false"; "false"; "true" ]);
    ("x->includes(7)", [ "false"; "true"; "false"; "false" ]);
    ("x->excludes(0)", [ "true"; "true"; "true"; "false" ]);
    ("x->count(null)", [ "0"; "0"; "0"; "1" ]);
    ("x->forAll(e | e <> null)", [ "true"; "true"; "true"; "false" ]);
    ("x->forAll(e | e > 0)", [ "true"; "true"; "true"; "false" ]);
    ("x->exists(e | e = 0)", [ "false"; "false"; "false"; "true" ]);
    ("x->isEmpty()", [ "true"; "false"; "true"; "false" ])
  ]

let prim_kernel_tests =
  List.map
    (fun (text, expected) ->
      Alcotest.test_case text `Quick (fun () ->
          let expr = ocl text in
          List.iter2
            (fun (label, doc) want ->
              let env =
                Eval.env_of_bindings
                  (match doc with Some j -> [ ("x", j) ] | None -> [])
              in
              agree_on (text ^ "/" ^ label) env expr;
              Alcotest.(check string) (text ^ "/" ^ label) want
                (Fmt.str "%a" Value.pp (Eval.eval env expr)))
            kernel_receivers expected))
    kernel_cases

(* ---- exhaustive Kleene connectives ----

   The compiler stages [and]/[or]/[implies] through short-circuiting
   closures with separate constant-folded paths, so a drift from the
   Kleene truth tables would be silent on happy-path contracts.  Cover
   the full operand grid: each of the three truth values both as a
   compile-time constant (literal) and as a runtime value (variable
   binding — including an unbound variable for Unknown). *)

let kleene_env =
  Eval.env_of_bindings [ ("t", Json.bool true); ("f", Json.bool false) ]

(* label, expression, its truth value *)
let kleene_operands =
  [ ("const-true", Ast.Bool_lit true, Value.True);
    ("const-false", Ast.Bool_lit false, Value.False);
    ("const-unknown", Ast.Null_lit, Value.Unknown);
    ("dyn-true", Ast.Var "t", Value.True);
    ("dyn-false", Ast.Var "f", Value.False);
    ("dyn-unknown", Ast.Var "u", Value.Unknown)
  ]

let check_kleene label expr expected =
  Alcotest.check tribool (label ^ " interpreted") expected
    (Eval.check kleene_env expr);
  let plan = Compile.plan () in
  let staged = Compile.compile plan expr in
  let staged_raw = Compile.compile_raw plan expr in
  let frame = Compile.frame_of_env plan kleene_env in
  Alcotest.check tribool (label ^ " compiled") expected
    (Compile.check staged frame);
  Alcotest.check tribool (label ^ " raw-compiled") expected
    (Compile.check staged_raw frame)

let kleene_tests =
  let connectives =
    [ ("and", Ast.And, Value.tri_and);
      ("or", Ast.Or, Value.tri_or);
      ("implies", Ast.Implies, Value.tri_implies);
      ("xor", Ast.Xor, Value.tri_xor)
    ]
  in
  List.map
    (fun (name, op, reference) ->
      Alcotest.test_case (name ^ ": full 6x6 operand grid") `Quick (fun () ->
          List.iter
            (fun (la, ea, ta) ->
              List.iter
                (fun (lb, eb, tb) ->
                  check_kleene
                    (Printf.sprintf "%s %s %s" la name lb)
                    (Ast.Binop (op, ea, eb))
                    (reference ta tb))
                kleene_operands)
            kleene_operands))
    connectives
  @ [ Alcotest.test_case "not: all 6 operands" `Quick (fun () ->
          List.iter
            (fun (l, e, t) ->
              check_kleene ("not " ^ l)
                (Ast.Unop (Ast.Not, e))
                (Value.tri_not t))
            kleene_operands)
    ]

let () =
  Alcotest.run "cm_compile"
    [ ("expr-differential", expr_differential_tests);
      ("corners", corner_tests);
      ("runtime-differential", runtime_differential_tests);
      ("pre-phase-cases", pre_phase_case_tests);
      ("prim-kernels", prim_kernel_tests);
      ("kleene-connectives", kleene_tests)
    ]
