module Compile = Cm_ocl.Compile
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value

type strategy = Lean | Full
type engine = Interpreted | Compiled

(* A Lean snapshot slot: its name, its slot index in the plan, the
   compiled slot expression e_k, and — when e_k is one of the branch
   guards (and reads no pre()) — the index of that guard, whose value
   the pre-phase has already computed. *)
type slot = {
  slot_name : string;
  slot_index : int;
  slot_t : Compile.t;
  slot_guard : int option;
}

(* Everything staged once per contract at prepare time: one slot plan
   shared by all of the contract's expressions, and one closure per
   expression the monitor evaluates on the request path.  The
   precondition itself is not staged: the compiled pre-phase derives it
   from the branch guards. *)
type staged = {
  plan : Compile.plan;
  functional_pre_t : Compile.t;
  auth_guard_t : Compile.t option;
  branches_t : (Compile.t * string list) array;
  post_lean_t : Compile.t;  (* rewritten post: pre(e_k) -> slot vars *)
  post_full_t : Compile.t;  (* original post, against a pre frame *)
  slots_t : slot list;
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

(* The guard a snapshot slot can reuse: the first branch whose guard is
   the slot expression itself.  A slot that reads pre() is never
   matched — it is evaluated against a frame marked as the pre-state,
   where pre() means something different than in a guard. *)
let guard_of_slot (contract : Contract.t) expr =
  if Cm_ocl.Ast.has_pre expr then None
  else
    let rec find i = function
      | [] -> None
      | (b : Contract.branch) :: rest ->
        if Cm_ocl.Ast.equal b.Contract.branch_pre expr then Some i
        else find (i + 1) rest
    in
    find 0 contract.Contract.branches

let stage_contract (contract : Contract.t) (compiled : Snapshot.compiled) =
  let plan = Compile.plan () in
  let slots_t =
    List.map
      (fun (name, expr) ->
        { slot_name = name;
          slot_index = Compile.var_slot plan name;
          slot_t = Compile.compile plan expr;
          slot_guard = guard_of_slot contract expr
        })
      compiled.Snapshot.slots
  in
  { plan;
    slots_t;
    functional_pre_t = Compile.compile plan contract.Contract.functional_pre;
    auth_guard_t =
      Option.map (Compile.compile plan) contract.Contract.auth_guard;
    branches_t =
      Array.of_list
        (List.map
           (fun (b : Contract.branch) ->
             ( Compile.compile plan b.Contract.branch_pre,
               b.Contract.branch_requirements ))
           contract.Contract.branches);
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

let count_evals p n = p.evals <- p.evals + n

type pre_phase = {
  verdict : Eval.verdict;
  covered : string list;
  auth : Value.tribool option;
  functional : Value.tribool;
  snapshot : snapshot;
}

(* Under Lean every slot is evaluated exactly once, except that a slot
   for which [reuse] returns a value — a guard value the compiled
   pre-phase already holds — takes that value verbatim. *)
let snapshot_with p obs ~reuse =
  match p.strategy, p.engine with
  | Full, _ -> Full_state obs
  | Lean, Interpreted ->
    count_evals p (List.length p.compiled.Snapshot.slots);
    Lean_values (Snapshot.take p.compiled obs.env)
  | Lean, Compiled ->
    (* Slot expressions may themselves contain pre() (idempotent), so
       when they do, evaluate them against a frame marked as the
       pre-state. *)
    let marked =
      if p.staged.slots_read_pre then Compile.with_pre ~pre:obs.frame obs.frame
      else obs.frame
    in
    Lean_values
      (List.map
         (fun s ->
           match reuse s with
           | Some value -> (s.slot_name, value)
           | None ->
             count_evals p 1;
             (s.slot_name, Compile.eval s.slot_t marked))
         p.staged.slots_t)

let take_snapshot p obs = snapshot_with p obs ~reuse:(fun _ -> None)

(* The reference: every original expression evaluated on its own. *)
let pre_phase_interpreted p obs =
  let env = obs.env and contract = p.contract in
  count_evals p (2 + List.length contract.Contract.branches);
  let auth =
    Option.map
      (fun guard ->
        count_evals p 1;
        Eval.check env guard)
      contract.Contract.auth_guard
  in
  { verdict = Eval.verdict env contract.Contract.pre;
    covered =
      Contract.active_branches contract env
      |> List.concat_map (fun b -> b.Contract.branch_requirements)
      |> List.sort_uniq String.compare;
    auth;
    functional = Eval.check env contract.Contract.functional_pre;
    snapshot = take_snapshot p obs
  }

(* One pass over the branch guards; every other answer is derived.
   - pre = ∨ guards: the contract's precondition is the (simplified)
     disjunction of the branch guards, and simplification is Kleene-sound.
   - covered = the requirements of the guards that are True.
   - functional = pre when the authorization guard is absent or True:
     each guard is inv ∧ guard ∧ auth, the functional precondition the
     same disjunction without auth, and x ∧ True = x in Kleene logic.
     Otherwise it is evaluated.
   - a snapshot slot whose expression is a guard reuses that guard's
     value, so the journaled pre-image is the same bytes. *)
let pre_phase_compiled p obs =
  let staged = p.staged and frame = obs.frame in
  count_evals p (Array.length staged.branches_t);
  let guards =
    Array.map (fun (t, _) -> Compile.eval t frame) staged.branches_t
  in
  let pre =
    Array.fold_left (fun acc v -> Value.tri_or acc (Value.truth v)) Value.False
      guards
  in
  let verdict =
    match pre with
    | Value.True -> Eval.Holds
    | Value.False -> Eval.Violated
    | Value.Unknown ->
      (* Rare path: re-run the interpreter for its fault-localization
         hint (the verdict is necessarily Undefined_verdict — the two
         evaluators agree on tribools). *)
      Eval.verdict obs.env p.contract.Contract.pre
  in
  let covered = ref [] in
  Array.iteri
    (fun i (_, requirements) ->
      if Value.truth guards.(i) = Value.True then
        covered := requirements @ !covered)
    staged.branches_t;
  let auth =
    Option.map
      (fun t ->
        count_evals p 1;
        Compile.check t frame)
      staged.auth_guard_t
  in
  let functional =
    match auth with
    | None | Some Value.True -> pre
    | Some (Value.False | Value.Unknown) ->
      count_evals p 1;
      Compile.check staged.functional_pre_t frame
  in
  { verdict;
    covered = List.sort_uniq String.compare !covered;
    auth;
    functional;
    snapshot =
      snapshot_with p obs ~reuse:(fun s ->
          Option.map (Array.get guards) s.slot_guard)
  }

let pre_phase p obs =
  match p.engine with
  | Interpreted -> pre_phase_interpreted p obs
  | Compiled -> pre_phase_compiled p obs

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
  count_evals p 1;
  let tri =
    match snapshot, p.engine with
    | Lean_values taken, Interpreted ->
      Snapshot.check_post_lean p.compiled taken obs.env
    | Lean_values taken, Compiled ->
      List.iter
        (fun s ->
          Compile.write_slot obs.frame s.slot_index
            (Option.value ~default:Value.Undef
               (List.assoc_opt s.slot_name taken)))
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
