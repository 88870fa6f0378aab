module Compile = Cm_ocl.Compile
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value

type strategy = Lean | Full
type engine = Interpreted | Compiled

(* Everything staged once per contract at prepare time: one slot plan
   shared by all of the contract's expressions, and one closure per
   expression the monitor evaluates on the request path. *)
type staged = {
  plan : Compile.plan;
  pre_t : Compile.t;
  functional_pre_t : Compile.t;
  auth_guard_t : Compile.t option;
  branches_t : (Compile.t * string list) list;
  post_lean_t : Compile.t;  (* rewritten post: pre(e_k) -> slot vars *)
  post_full_t : Compile.t;  (* original post, against a pre frame *)
  slots_t : (string * int * Compile.t) list;
      (* snapshot slot: name, its slot index in the plan, compiled e_k *)
  slots_read_pre : bool;  (* any slot expression reads pre() *)
}

(* An observed state: the interpreter environment as delivered by the
   observer, plus its projection onto the contract's frame. *)
type observed = {
  env : Eval.env;
  frame : Compile.frame;
}

type snapshot =
  | Lean_values of Snapshot.taken
  | Full_state of observed

(* Statically computed event interest, produced by the analysis layer
   (which sits above this library) and threaded in through {!prepare}.
   The runtime only stores and serves it; the monitor uses it to skip
   contracts that cannot react to a request, and the sharded driver to
   prove tenant-closure. *)
type subscription = {
  sub_events : (Cm_http.Meth.t * string * bool) list;
  sub_identity : bool;
  sub_shard_closed : bool;
}

type prepared = {
  contract : Contract.t;
  strategy : strategy;
  engine : engine;
  compiled : Snapshot.compiled;
  staged : staged;
  footprint : Cm_ocl.Footprint.t;
  subscription : subscription option;
  mutable evals : int;
      (* top-level expression evaluations; single-threaded per prepared
         contract (each monitor shard owns its own prepared list) *)
}

(* The read-set is computed over the contract's original expressions,
   not the slot-rewritten post: slot variables are synthetic and the
   slot expressions themselves are sub-expressions of the post. *)
let contract_footprint (contract : Contract.t) =
  Cm_ocl.Footprint.of_exprs
    ([ contract.Contract.pre;
       contract.Contract.functional_pre;
       contract.Contract.post
     ]
    @ Option.to_list contract.Contract.auth_guard
    @ List.concat_map
        (fun (b : Contract.branch) ->
          [ b.Contract.branch_pre; b.Contract.branch_post ])
        contract.Contract.branches)

let stage_contract (contract : Contract.t) (compiled : Snapshot.compiled) =
  let plan = Compile.plan () in
  let slots_t =
    List.map
      (fun (name, expr) ->
        (name, Compile.var_slot plan name, Compile.compile plan expr))
      compiled.Snapshot.slots
  in
  { plan;
    slots_t;
    functional_pre_t = Compile.compile plan contract.Contract.functional_pre;
    auth_guard_t =
      Option.map (Compile.compile plan) contract.Contract.auth_guard;
    branches_t =
      List.map
        (fun (b : Contract.branch) ->
          ( Compile.compile plan b.Contract.branch_pre,
            b.Contract.branch_requirements ))
        contract.Contract.branches;
    pre_t = Compile.compile plan contract.Contract.pre;
    post_lean_t = Compile.compile plan compiled.Snapshot.rewritten_post;
    post_full_t = Compile.compile plan contract.Contract.post;
    slots_read_pre =
      List.exists
        (fun (_, expr) -> Cm_ocl.Ast.has_pre expr)
        compiled.Snapshot.slots
  }

let prepare ?(strategy = Lean) ?(engine = Compiled) ?subscription contract =
  let compiled = Snapshot.compile contract.Contract.post in
  { contract;
    strategy;
    engine;
    compiled;
    staged = stage_contract contract compiled;
    footprint = contract_footprint contract;
    subscription;
    evals = 0
  }

let contract p = p.contract
let strategy p = p.strategy
let engine p = p.engine
let footprint p = p.footprint
let subscription p = p.subscription

(* Does the subscription admit a request on (meth, resource)?  [None]
   (no analysis ran) admits everything — the pre-analysis behaviour. *)
let subscribed_to p ~meth ~resource =
  match p.subscription with
  | None -> true
  | Some s ->
    let r = String.lowercase_ascii resource in
    List.exists
      (fun (m, res, _) -> Cm_http.Meth.equal m meth && String.equal res r)
      s.sub_events

let observe p env = { env; frame = Compile.frame_of_env p.staged.plan env }
let observed_env obs = obs.env

let verdict_of_tribool tb hint =
  match tb with
  | Value.True -> Eval.Holds
  | Value.False -> Eval.Violated
  | Value.Unknown -> Eval.Undefined_verdict hint

let count_eval p = p.evals <- p.evals + 1

let check_pre_observed p obs =
  count_eval p;
  match p.engine with
  | Interpreted -> Eval.verdict obs.env p.contract.Contract.pre
  | Compiled ->
    (match Compile.check p.staged.pre_t obs.frame with
     | Value.True -> Eval.Holds
     | Value.False -> Eval.Violated
     | Value.Unknown ->
       (* Rare path: re-run the interpreter for its fault-localization
          hint (verdict is necessarily Undefined_verdict — the two
          evaluators agree on tribools). *)
       Eval.verdict obs.env p.contract.Contract.pre)

let check_pre p env = check_pre_observed p (observe p env)

let covered_requirements_observed p obs =
  count_eval p;
  (match p.engine with
   | Interpreted ->
     Contract.active_branches p.contract obs.env
     |> List.concat_map (fun b -> b.Contract.branch_requirements)
   | Compiled ->
     List.concat_map
       (fun (branch_t, requirements) ->
         if Compile.check branch_t obs.frame = Value.True then requirements
         else [])
       p.staged.branches_t)
  |> List.sort_uniq String.compare

let covered_requirements p env =
  covered_requirements_observed p (observe p env)

let auth_guard_tri p obs =
  match p.contract.Contract.auth_guard, p.staged.auth_guard_t, p.engine with
  | None, _, _ | _, None, _ -> None
  | Some guard, _, Interpreted ->
    count_eval p;
    Some (Eval.check obs.env guard)
  | _, Some guard_t, Compiled ->
    count_eval p;
    Some (Compile.check guard_t obs.frame)

let functional_pre_tri p obs =
  count_eval p;
  match p.engine with
  | Interpreted -> Eval.check obs.env p.contract.Contract.functional_pre
  | Compiled -> Compile.check p.staged.functional_pre_t obs.frame

let take_snapshot_observed p obs =
  match p.strategy, p.engine with
  | Lean, Interpreted ->
    count_eval p;
    Lean_values (Snapshot.take p.compiled obs.env)
  | Lean, Compiled ->
    count_eval p;
    (* Slot expressions may themselves contain pre() (idempotent), so
       when they do, evaluate them against a frame marked as the
       pre-state — each slot exactly once. *)
    let marked =
      if p.staged.slots_read_pre then Compile.with_pre ~pre:obs.frame obs.frame
      else obs.frame
    in
    Lean_values
      (List.map
         (fun (name, _slot, slot_t) -> (name, Compile.eval slot_t marked))
         p.staged.slots_t)
  | Full, _ -> Full_state obs

let take_snapshot p env = take_snapshot_observed p (observe p env)

let snapshot_bytes = function
  | Lean_values taken -> Snapshot.size_bytes taken
  | Full_state obs -> Snapshot.full_size_bytes obs.env

(* Lean snapshots are plain (slot, value) lists, which makes them
   serializable — the crash-recovery journal persists them as the
   durable pre-image of a forwarded request.  Full-state snapshots hold
   a live evaluation frame and cannot round-trip through bytes. *)
let snapshot_values = function
  | Lean_values taken -> Some taken
  | Full_state _ -> None

let snapshot_of_values taken = Lean_values taken

let post_hint = "postcondition undefined"

let check_post_observed p snapshot obs =
  count_eval p;
  let tri =
    match snapshot, p.engine with
    | Lean_values taken, Interpreted ->
      Snapshot.check_post_lean p.compiled taken obs.env
    | Lean_values taken, Compiled ->
      List.iter
        (fun (name, slot, _) ->
          Compile.write_slot obs.frame slot
            (Option.value ~default:Value.Undef (List.assoc_opt name taken)))
        p.staged.slots_t;
      Compile.check p.staged.post_lean_t obs.frame
    | Full_state pre, Interpreted ->
      Snapshot.check_post_full p.contract.Contract.post ~pre:pre.env obs.env
    | Full_state pre, Compiled ->
      Compile.check p.staged.post_full_t
        (Compile.with_pre ~pre:pre.frame obs.frame)
  in
  verdict_of_tribool tri post_hint

let check_post p snapshot env =
  check_post_observed p snapshot (observe p env)

type eval_stats = { evals : int; replays : int }

let eval_stats (p : prepared) = { evals = p.evals; replays = 0 }
