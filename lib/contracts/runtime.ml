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

(* A branch guard inv(source) ∧ guard ∧ auth, split into its
   (simplified, flattened) conjuncts in evaluation order.  With the
   authorization shortcut on, the authorization conjuncts are left out:
   the pre-phase has evaluated the authorization guard first and
   conjoins its value.  A guard that is a single conjunct has that
   conjunct's value; any other has the Kleene conjunction, exactly as
   the staged connective would produce it. *)
type guard = {
  conjuncts : Compile.t array;
  single : bool;
  requirements : string list;
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
  auth_first : bool;
      (* the authorization guard's conjuncts are conjuncts of every
         branch guard, so a definite False settles every guard *)
  guards : guard array;
  post_lean_t : Compile.t;  (* rewritten post: pre(e_k) -> slot vars *)
  post_full_t : Compile.t;  (* original post, against a pre frame *)
  slots_t : slot list;
  slots_read_pre : bool;  (* any slot expression reads pre() *)
}

(* An observed state: the contract's frame over the (possibly lazy)
   source the observer delivered, and the interpreter environment,
   built — forcing every observation — only when something reads it. *)
type observed = {
  frame : Compile.frame;
  env : Eval.env Lazy.t;
}

type snapshot =
  | Lean_values of Snapshot.taken
  | Full_state of observed
  | Unobserved of string  (* the pre-state could not be observed *)

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

(* The evaluation order of one guard's conjuncts, fixed here: greedily
   the conjunct with the fewest GET units not yet read by the conjuncts
   before it (the authorization guard's count as read), ties going to
   conjuncts that read the request's addressed item, then to the
   written order.  Kleene ∧ is commutative, so the order never changes
   the value, only how soon a False stops it. *)
let cost_order ~units ~addressed ~seen conjuncts =
  let annotated =
    List.mapi
      (fun i c ->
        let fp = Cm_ocl.Footprint.of_expr c in
        (i, c, units fp, addressed fp))
      conjuncts
  in
  let rec pick seen acc = function
    | [] -> List.rev acc
    | first :: _ as remaining ->
      let key (i, _, us, addr) =
        ( List.length (List.filter (fun u -> not (List.mem u seen)) us),
          (if addr then 0 else 1),
          i )
      in
      let bi, c, us, _ =
        List.fold_left
          (fun b x -> if compare (key x) (key b) < 0 then x else b)
          first remaining
      in
      pick (us @ seen) (c :: acc)
        (List.filter (fun (i, _, _, _) -> i <> bi) remaining)
  in
  pick seen [] annotated

type cost_model = {
  units : string -> Cm_ocl.Footprint.fields -> string list;
  addressed : string -> bool;
}

let written_order = { units = (fun _ _ -> []); addressed = (fun _ -> false) }

let stage_contract ~cost (contract : Contract.t) (compiled : Snapshot.compiled) =
  let plan = Compile.plan () in
  (* GET units a footprint reads, by the observer's cost model *)
  let units fp =
    List.concat_map (fun (root, fields) -> cost.units root fields) fp
    |> List.sort_uniq String.compare
  in
  let addressed fp = List.exists (fun (root, _) -> cost.addressed root) fp in
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
  let conjuncts e = Cm_ocl.Simplify.(conjuncts (simplify e)) in
  let auth_conjuncts =
    Option.map conjuncts contract.Contract.auth_guard
  in
  let branch_conjuncts =
    List.map
      (fun (b : Contract.branch) -> conjuncts b.Contract.branch_pre)
      contract.Contract.branches
  in
  (* The authorization-first lemma holds only where the authorization
     guard really is conjoined into every branch guard; otherwise the
     shortcut stays off. *)
  let auth_first =
    match auth_conjuncts with
    | None -> false
    | Some auth ->
      auth <> []
      && List.for_all
           (fun cs ->
             List.for_all
               (fun a -> List.exists (Cm_ocl.Ast.equal a) cs)
               auth)
           branch_conjuncts
  in
  let seen =
    match contract.Contract.auth_guard with
    | Some auth when auth_first -> units (Cm_ocl.Footprint.of_expr auth)
    | Some _ | None -> []
  in
  let guards =
    List.map2
      (fun (b : Contract.branch) cs ->
        let rest =
          match auth_conjuncts with
          | Some auth when auth_first ->
            List.filter
              (fun c -> not (List.exists (Cm_ocl.Ast.equal c) auth))
              cs
          | Some _ | None -> cs
        in
        (* conjuncts of a simplified guard are simplified already *)
        { conjuncts =
            Array.of_list
              (List.map (Compile.compile_raw plan)
                 (cost_order ~units ~addressed ~seen rest));
          single = List.length cs = 1;
          requirements = b.Contract.branch_requirements
        })
      contract.Contract.branches branch_conjuncts
  in
  { plan;
    slots_t;
    functional_pre_t = Compile.compile plan contract.Contract.functional_pre;
    auth_guard_t =
      Option.map (Compile.compile plan) contract.Contract.auth_guard;
    auth_first;
    guards = Array.of_list guards;
    post_lean_t = Compile.compile plan compiled.Snapshot.rewritten_post;
    post_full_t = Compile.compile plan contract.Contract.post;
    slots_read_pre =
      List.exists
        (fun (_, expr) -> Cm_ocl.Ast.has_pre expr)
        compiled.Snapshot.slots
  }

let prepare ?(strategy = Lean) ?(engine = Compiled) ?subscription ~cost
    contract =
  let compiled = Snapshot.compile contract.Contract.post in
  { contract;
    strategy;
    engine;
    compiled;
    staged = stage_contract ~cost contract compiled;
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

let observe_source p (src : Compile.source) =
  { frame = Compile.frame_of_source p.staged.plan src;
    env = lazy (src.Compile.materialize ())
  }

let observe p env = observe_source p (Compile.source_of_env env)
let observed_env obs = Lazy.force obs.env

(* A failed observation is left for whoever reads it to meet. *)
let force obs =
  try ignore (observed_env obs) with Compile.Unobservable _ -> ()

let unobservable_hint what = "unobservable: " ^ what

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
  functional : Value.tribool Lazy.t;
  snapshot : snapshot Lazy.t;
}

(* Under Lean every slot is evaluated exactly once, except that a slot
   for which [reuse] returns a value — a guard value the compiled
   pre-phase already holds — takes that value verbatim.  A Full
   snapshot keeps the observation itself, so it forces all of it: the
   post-check must never read a pre-state thunk after the forward. *)
let snapshot_exn p obs ~reuse =
  match p.strategy, p.engine with
  | Full, _ ->
    ignore (observed_env obs);
    Full_state obs
  | Lean, Interpreted ->
    count_evals p (List.length p.compiled.Snapshot.slots);
    Lean_values (Snapshot.take p.compiled (observed_env obs))
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

(* A slot that could not be observed leaves the whole snapshot
   unobserved, and the postcondition checked against it undefined. *)
let snapshot_with p obs ~reuse =
  try snapshot_exn p obs ~reuse
  with Compile.Unobservable what -> Unobserved what

let take_snapshot p obs = snapshot_with p obs ~reuse:(fun _ -> None)

(* The reference: every original expression evaluated on its own. *)
let pre_phase_interpreted p obs =
  let env = observed_env obs and contract = p.contract in
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
    functional = Lazy.from_val (Eval.check env contract.Contract.functional_pre);
    snapshot = Lazy.from_val (take_snapshot p obs)
  }

(* Kleene ∧ of a guard's conjuncts in their staged order, starting from
   [acc]; a False stops it, an Unknown never does. *)
let conjoin frame conjuncts acc =
  let n = Array.length conjuncts in
  let rec go acc i =
    if i = n then acc
    else
      match Value.truth (Compile.eval (Array.unsafe_get conjuncts i) frame) with
      | Value.False -> Value.False
      | t -> go (Value.tri_and acc t) (i + 1)
  in
  if acc = Value.False then Value.False else go acc 0

(* A read the pre-phase could not observe leaves every answer
   undefined but [auth]: no guard may be judged from state nobody saw. *)
let unobserved_phase ~auth what =
  { verdict = Eval.Undefined_verdict (unobservable_hint what);
    covered = [];
    auth;
    functional = Lazy.from_val Value.Unknown;
    snapshot = Lazy.from_val (Unobserved what)
  }

(* One pass over the branch guards; every other answer is derived.
   - auth first: the authorization guard is evaluated before any guard.
     Where it is a conjunct of every guard (checked in [prepare]), its
     value is conjoined into each guard in place of its conjuncts, and a
     definite False settles every guard as False — pre False, nothing
     covered — from the subject alone.
   - each guard's remaining conjuncts run cheapest first and stop at the
     first False.
   - pre = ∨ guards: the contract's precondition is the (simplified)
     disjunction of the branch guards, and simplification is
     Kleene-sound.  Every guard is evaluated, because covered needs each
     guard's truth.
   - covered = the requirements of the guards that are True.
   - functional = pre when the authorization guard is absent or True:
     each guard is inv ∧ guard ∧ auth, the functional precondition the
     same disjunction without auth, and x ∧ True = x in Kleene logic.
     Otherwise it is evaluated — when it is forced.
   - a snapshot slot whose expression is a guard reuses that guard's
     value, so the journaled pre-image is the same bytes.  The snapshot
     is taken when it is forced, which must happen before the forward.
   Nothing reads a context slot the answers do not need, so a lazy
   frame fetches only what the verdict read. *)
let pre_phase_guards p obs ~auth_value ~auth =
  let staged = p.staged and frame = obs.frame in
  let start =
    match auth with
    | Some tri when staged.auth_first -> tri
    | Some _ | None -> Value.True
  in
  count_evals p (Array.length staged.guards);
  let guards =
    Array.map
      (fun g ->
        if g.single && staged.auth_first then Option.get auth_value
        else if g.single then Compile.eval g.conjuncts.(0) frame
        else Cm_ocl.Prim.value_of_tribool (conjoin frame g.conjuncts start))
      staged.guards
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
         evaluators agree on tribools).  It forces the whole frame. *)
      Eval.verdict (observed_env obs) p.contract.Contract.pre
  in
  let covered = ref [] in
  Array.iteri
    (fun i g ->
      if Value.truth guards.(i) = Value.True then
        covered := g.requirements @ !covered)
    staged.guards;
  let functional =
    match auth with
    | None | Some Value.True -> Lazy.from_val pre
    | Some (Value.False | Value.Unknown) ->
      lazy
        (count_evals p 1;
         try Compile.check staged.functional_pre_t frame
         with Compile.Unobservable _ -> Value.Unknown)
  in
  { verdict;
    covered = List.sort_uniq String.compare !covered;
    auth;
    functional;
    snapshot =
      lazy
        (snapshot_with p obs ~reuse:(fun s ->
             Option.map (Array.get guards) s.slot_guard))
  }

let pre_phase_compiled p obs =
  let staged = p.staged and frame = obs.frame in
  (* an authorization guard that reads a failed GET is raised to
     [pre_phase]; one that settled keeps its value below *)
  let auth_value =
    Option.map
      (fun t ->
        count_evals p 1;
        Compile.eval t frame)
      staged.auth_guard_t
  in
  let auth = Option.map Value.truth auth_value in
  try pre_phase_guards p obs ~auth_value ~auth
  with Compile.Unobservable what -> unobserved_phase ~auth what

(* The interpreter reads a materialized environment, so any failed GET
   leaves its authorization undefined too. *)
let pre_phase p obs =
  try
    match p.engine with
    | Interpreted -> pre_phase_interpreted p obs
    | Compiled -> pre_phase_compiled p obs
  with Compile.Unobservable what ->
    unobserved_phase
      ~auth:(Option.map (fun _ -> Value.Unknown) p.staged.auth_guard_t)
      what

let snapshot_bytes = function
  | Lean_values taken -> Snapshot.size_bytes taken
  | Full_state obs -> Snapshot.full_size_bytes (observed_env obs)
  | Unobserved _ -> 0

(* Lean snapshots are plain (slot, value) lists, which makes them
   serializable — the crash-recovery journal persists them as the
   durable pre-image of a forwarded request.  Full-state snapshots hold
   a live evaluation frame and cannot round-trip through bytes. *)
let snapshot_values = function
  | Lean_values taken -> Some taken
  | Full_state _ | Unobserved _ -> None

let snapshot_of_values taken = Lean_values taken

let post_hint = "postcondition undefined"

let check_post_observed p snapshot obs =
  count_evals p 1;
  match
    match snapshot, p.engine with
    | Unobserved what, _ -> raise (Compile.Unobservable what)
    | Lean_values taken, Interpreted ->
      Snapshot.check_post_lean p.compiled taken (observed_env obs)
    | Lean_values taken, Compiled ->
      List.iter
        (fun s ->
          Compile.write_slot obs.frame s.slot_index
            (Option.value ~default:Value.Undef
               (List.assoc_opt s.slot_name taken)))
        p.staged.slots_t;
      Compile.check p.staged.post_lean_t obs.frame
    | Full_state pre, Interpreted ->
      Snapshot.check_post_full p.contract.Contract.post
        ~pre:(observed_env pre) (observed_env obs)
    | Full_state pre, Compiled ->
      Compile.check p.staged.post_full_t
        (Compile.with_pre ~pre:pre.frame obs.frame)
  with
  | tri -> verdict_of_tribool tri post_hint
  | exception Compile.Unobservable what ->
    Eval.Undefined_verdict (unobservable_hint what)

let check_post p snapshot env =
  check_post_observed p snapshot (observe p env)

type eval_stats = { evals : int; replays : int }

let eval_stats (p : prepared) = { evals = p.evals; replays = 0 }
