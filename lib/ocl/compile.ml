module Json = Cm_json.Json

(* A frame is the compiled counterpart of {!Eval.env}: a pre-sized value
   array indexed by compile-time slot numbers, replacing the
   interpreter's assoc-list lookups.  Iterator binders get scratch slots
   in the same array, written in place during iteration — evaluating a
   compiled contract allocates nothing beyond what the OCL collection
   operations themselves build.

   Context slots are filled on first read from the frame's {!source}:
   a free root variable forces the whole root, and a first-level
   navigation [root.member] on a free root has a slot of its own that
   forces only what that member needs.  A slot never read costs no
   observation. *)

exception Unobservable of string

type source = {
  root : string -> Value.t;
  member : string -> string -> Value.t;
  materialize : unit -> Eval.env;
}

(* A member slot keeps its root's slot index: once that slot holds a
   value — read from the source, or written by the snapshot runtime (the
   [__preN] slots of a Lean post-check, which no source binds) — the
   member is navigated from it. *)
type kind = Root of string | Member of int * string * string | Scratch

type frame = {
  slots : Value.t array;
  kinds : kind array;
  src : source;
  pre : frame option;
  is_pre : bool;
}

type t = frame -> Value.t

(* Staging: subtrees whose value cannot depend on the frame are folded
   to constants at compile time; every OCL operation is total and pure,
   so folding (and the short-circuits below) cannot change verdicts. *)
type staged = Const of Value.t | Dyn of t

type plan = {
  free_tbl : (string, int) Hashtbl.t;
  member_tbl : (string * string, int) Hashtbl.t;
  mutable frees : (string * int) list;  (* reversed insertion order *)
  mutable kinds : kind array;  (* by slot; grown on demand *)
  mutable size : int;  (* context slots + iterator scratch slots *)
  mutable template : Value.t array;  (* a fresh frame's slots *)
}

let plan () =
  { free_tbl = Hashtbl.create 16;
    member_tbl = Hashtbl.create 16;
    frees = [];
    kinds = Array.make 16 Scratch;
    size = 0;
    template = [||]
  }

let new_slot plan kind =
  let i = plan.size in
  if i = Array.length plan.kinds then begin
    let grown = Array.make (2 * i) Scratch in
    Array.blit plan.kinds 0 grown 0 i;
    plan.kinds <- grown
  end;
  plan.kinds.(i) <- kind;
  plan.size <- i + 1;
  i

let var_slot plan name =
  match Hashtbl.find_opt plan.free_tbl name with
  | Some i -> i
  | None ->
    let i = new_slot plan (Root name) in
    Hashtbl.add plan.free_tbl name i;
    plan.frees <- (name, i) :: plan.frees;
    i

let member_slot plan root field =
  match Hashtbl.find_opt plan.member_tbl (root, field) with
  | Some i -> i
  | None ->
    let r = var_slot plan root in
    let i = new_slot plan (Member (r, root, field)) in
    Hashtbl.add plan.member_tbl (root, field) i;
    i

let scratch_slot plan = new_slot plan Scratch

let plan_vars plan = List.rev_map fst plan.frees

(* The mark of a context slot not read yet; compared physically, and
   private to this module, so no observed value can ever be it. *)
let unfilled = Value.Json (Json.String "unfilled")

let fill (fr : frame) i =
  let v =
    match fr.kinds.(i) with
    | Root name -> fr.src.root name
    | Member (r, root, field) ->
      let rv = Array.unsafe_get fr.slots r in
      if rv != unfilled then Prim.navigate rv field
      else fr.src.member root field
    | Scratch -> Value.Undef
  in
  fr.slots.(i) <- v;
  v

let get (fr : frame) i =
  let v = Array.unsafe_get fr.slots i in
  if v != unfilled then v else fill fr i

let frame_of_source plan src =
  let n = max 1 plan.size in
  if Array.length plan.template <> n then
    plan.template <-
      Array.init n (fun i ->
          match plan.kinds.(i) with
          | Scratch -> Value.Undef
          | Root _ | Member _ -> unfilled);
  { slots = Array.copy plan.template;
    kinds = plan.kinds;
    src;
    pre = None;
    is_pre = false
  }

let source_of_env env =
  { root = (fun name -> Eval.lookup name env);
    member = (fun root field -> Prim.navigate (Eval.lookup root env) field);
    materialize = (fun () -> env)
  }

let frame_of_env plan env = frame_of_source plan (source_of_env env)

let frame_of_bindings plan bindings =
  frame_of_env plan (Eval.env_of_bindings bindings)

let with_pre ~pre frame = { frame with pre = Some { pre with is_pre = true } }

let write_slot frame i value = frame.slots.(i) <- value
let read_slot frame i = get frame i

let run = function Const v -> fun _ -> v | Dyn f -> f

let of_tri = Prim.value_of_tribool

(* [scope] maps the iterator binders in reach (innermost first) to
   their scratch slots. *)
let rec stage plan scope expr : staged =
  match expr with
  | Ast.Bool_lit b -> Const (Prim.value_of_bool b)
  | Ast.Int_lit n -> Const (Value.of_int n)
  | Ast.String_lit s -> Const (Value.of_string s)
  | Ast.Null_lit -> Const (Value.Json Json.Null)
  | Ast.Var name ->
    (match List.assoc_opt name scope with
     | Some i ->
       (* innermost iterator binder shadows context vars *)
       Dyn (fun fr -> Array.unsafe_get fr.slots i)
     | None ->
       let i = var_slot plan name in
       Dyn (fun fr -> get fr i))
  | Ast.Nav (Ast.Var name, prop) when not (List.mem_assoc name scope) ->
    (* first-level navigation on a free root: a slot of its own, the
       compiled twin of [Footprint]'s [Fields] refinement *)
    let i = member_slot plan name prop in
    Dyn (fun fr -> get fr i)
  | Ast.Nav (e, prop) ->
    (match stage plan scope e with
     | Const v -> Const (Prim.navigate v prop)
     | Dyn f -> Dyn (fun fr -> Prim.navigate (f fr) prop))
  | Ast.At_pre e ->
    (* Never constant: the result depends on whether a pre-state is
       attached to the frame. *)
    let f = run (stage plan scope e) in
    Dyn
      (fun fr ->
        match fr.pre with
        | Some pre_frame -> f pre_frame
        | None -> if fr.is_pre then f fr else Value.Undef)
  | Ast.Coll (e, op) ->
    (match stage plan scope e with
     | Const v -> Const (Prim.coll op v)
     | Dyn f -> Dyn (fun fr -> Prim.coll op (f fr)))
  | Ast.Member (e, includes, arg) ->
    (match stage plan scope e, stage plan scope arg with
     | Const v, Const x -> Const (Prim.member ~includes v x)
     | ce, cx ->
       let fe = run ce and fx = run cx in
       Dyn (fun fr -> Prim.member ~includes (fe fr) (fx fr)))
  | Ast.Count (e, arg) ->
    (match stage plan scope e, stage plan scope arg with
     | Const v, Const x -> Const (Prim.count v x)
     | ce, cx ->
       let fe = run ce and fx = run cx in
       Dyn (fun fr -> Prim.count (fe fr) (fx fr)))
  | Ast.Iter (e, kind, var, body) ->
    let ce = stage plan scope e in
    let slot = scratch_slot plan in
    let cbody = stage plan ((var, slot) :: scope) body in
    (match ce, cbody with
     | Const cv, Const bv -> Const (Prim.iter kind cv (fun _ -> bv))
     | _ ->
       let fe = run ce and fb = run cbody in
       Dyn
         (fun fr ->
           Prim.iter kind (fe fr) (fun item ->
               fr.slots.(slot) <- item;
               fb fr)))
  | Ast.Unop (Ast.Not, e) ->
    (match stage plan scope e with
     | Const v -> Const (of_tri (Value.tri_not (Value.truth v)))
     | Dyn f -> Dyn (fun fr -> of_tri (Value.tri_not (Value.truth (f fr)))))
  | Ast.Unop (Ast.Neg, e) ->
    (match stage plan scope e with
     | Const v -> Const (Prim.neg v)
     | Dyn f -> Dyn (fun fr -> Prim.neg (f fr)))
  | Ast.Binop (Ast.And, a, b) -> stage_and plan scope a b
  | Ast.Binop (Ast.Or, a, b) -> stage_or plan scope a b
  | Ast.Binop (Ast.Implies, a, b) -> stage_implies plan scope a b
  | Ast.Binop (Ast.Xor, a, b) ->
    (match stage plan scope a, stage plan scope b with
     | Const va, Const vb ->
       Const (of_tri (Value.tri_xor (Value.truth va) (Value.truth vb)))
     | ca, cb ->
       let fa = run ca and fb = run cb in
       Dyn
         (fun fr ->
           of_tri (Value.tri_xor (Value.truth (fa fr)) (Value.truth (fb fr)))))
  | Ast.Binop (Ast.Eq, a, b) ->
    (match stage plan scope a, stage plan scope b with
     | Const va, Const vb -> Const (of_tri (Value.equal_value va vb))
     | ca, cb ->
       let fa = run ca and fb = run cb in
       Dyn (fun fr -> of_tri (Value.equal_value (fa fr) (fb fr))))
  | Ast.Binop (Ast.Neq, a, b) ->
    (match stage plan scope a, stage plan scope b with
     | Const va, Const vb ->
       Const (of_tri (Value.tri_not (Value.equal_value va vb)))
     | ca, cb ->
       let fa = run ca and fb = run cb in
       Dyn
         (fun fr -> of_tri (Value.tri_not (Value.equal_value (fa fr) (fb fr)))))
  | Ast.Binop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, a, b) ->
    (match stage plan scope a, stage plan scope b with
     | Const va, Const vb -> Const (Prim.compare op va vb)
     | ca, cb ->
       let fa = run ca and fb = run cb in
       Dyn (fun fr -> Prim.compare op (fa fr) (fb fr)))
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op, a, b) ->
    (match stage plan scope a, stage plan scope b with
     | Const va, Const vb -> Const (Prim.arith op va vb)
     | ca, cb ->
       let fa = run ca and fb = run cb in
       Dyn (fun fr -> Prim.arith op (fa fr) (fb fr)))

(* Kleene short-circuits: [False and _], [True or _] and [False implies _]
   decide without the second operand; all other combinations still
   evaluate it (Unknown must absorb a later False/True correctly). *)
and stage_and plan scope a b =
  match stage plan scope a, stage plan scope b with
  | Const va, cb -> stage_and_const (Value.truth va) cb
  | ca, Const vb ->
    (* symmetric fold: tri_and is commutative and evaluation is pure *)
    stage_and_const (Value.truth vb) ca
  | Dyn fa, Dyn fb ->
    Dyn
      (fun fr ->
        match Value.truth (fa fr) with
        | Value.False -> Prim.v_false
        | ta -> of_tri (Value.tri_and ta (Value.truth (fb fr))))

and stage_and_const ta cb =
  match ta with
  | Value.False -> Const Prim.v_false
  | Value.True ->
    (match cb with
     | Const vb -> Const (of_tri (Value.truth vb))
     | Dyn fb -> Dyn (fun fr -> of_tri (Value.truth (fb fr))))
  | Value.Unknown ->
    (match cb with
     | Const vb -> Const (of_tri (Value.tri_and Value.Unknown (Value.truth vb)))
     | Dyn fb ->
       Dyn
         (fun fr -> of_tri (Value.tri_and Value.Unknown (Value.truth (fb fr)))))

and stage_or plan scope a b =
  match stage plan scope a, stage plan scope b with
  | Const va, cb -> stage_or_const (Value.truth va) cb
  | ca, Const vb -> stage_or_const (Value.truth vb) ca
  | Dyn fa, Dyn fb ->
    Dyn
      (fun fr ->
        match Value.truth (fa fr) with
        | Value.True -> Prim.v_true
        | ta -> of_tri (Value.tri_or ta (Value.truth (fb fr))))

and stage_or_const ta cb =
  match ta with
  | Value.True -> Const Prim.v_true
  | Value.False ->
    (match cb with
     | Const vb -> Const (of_tri (Value.truth vb))
     | Dyn fb -> Dyn (fun fr -> of_tri (Value.truth (fb fr))))
  | Value.Unknown ->
    (match cb with
     | Const vb -> Const (of_tri (Value.tri_or Value.Unknown (Value.truth vb)))
     | Dyn fb ->
       Dyn
         (fun fr -> of_tri (Value.tri_or Value.Unknown (Value.truth (fb fr)))))

and stage_implies plan scope a b =
  match stage plan scope a, stage plan scope b with
  | Const va, cb ->
    (match Value.truth va with
     | Value.False -> Const Prim.v_true
     | ta ->
       (match cb with
        | Const vb -> Const (of_tri (Value.tri_implies ta (Value.truth vb)))
        | Dyn fb ->
          Dyn (fun fr -> of_tri (Value.tri_implies ta (Value.truth (fb fr))))))
  | ca, Const vb ->
    (match Value.truth vb with
     | Value.True -> Const Prim.v_true
     | tb ->
       let fa = run ca in
       Dyn (fun fr -> of_tri (Value.tri_implies (Value.truth (fa fr)) tb)))
  | Dyn fa, Dyn fb ->
    Dyn
      (fun fr ->
        match Value.truth (fa fr) with
        | Value.False -> Prim.v_true
        | ta -> of_tri (Value.tri_implies ta (Value.truth (fb fr))))

let compile_raw plan expr = run (stage plan [] expr)
let compile plan expr = compile_raw plan (Simplify.simplify expr)

let eval c frame = c frame
let check c frame = Value.truth (c frame)

let verdict c frame =
  match Value.truth (c frame) with
  | Value.True -> Eval.Holds
  | Value.False -> Eval.Violated
  | Value.Unknown -> Eval.Undefined_verdict "undefined (compiled)"
