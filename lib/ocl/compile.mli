(** Staged compilation of OCL to closures — the monitor's fast path.

    The tree-walking interpreter ({!Eval}) re-dispatches on the AST and
    re-resolves variables through assoc lists on {e every} request.  This
    module stages that work at monitor-creation time: an expression is
    compiled once into an OCaml closure over a {!frame} — a pre-sized
    value array whose slot layout ({!plan}) is fixed at compile time —
    so a request-time check is a direct closure call with array-indexed
    variable access and no environment allocation.

    Staging performed at compile time:
    - constant subexpressions (after {!Simplify.simplify}) are folded to
      their values — every OCL operation is total and pure, so folding
      cannot change verdicts;
    - boolean connectives become short-circuiting closures that preserve
      the Kleene tribool semantics of the interpreter ([False and _],
      [True or _], [False implies _] decide without the right operand);
    - iterator binders get scratch slots in the frame, written in place
      during iteration instead of allocating extended environments.

    Verdict-equivalence with {!Eval} over every generated contract is
    asserted by [test/test_compile.ml]. *)

type plan
(** A slot layout shared by a family of compiled expressions (one plan
    per contract).  Compiling against a plan allocates slots for the
    free context variables it encounters; frames must therefore be
    created {e after} every expression of the family has been
    compiled. *)

val plan : unit -> plan

val plan_vars : plan -> string list
(** Free context variables with slots, in first-allocation order. *)

val var_slot : plan -> string -> int
(** Slot index of a free context variable, allocating one if needed —
    used by the snapshot runtime to write captured pre-state values
    directly into a post-state frame. *)

exception Unobservable of string
(** Raised by a {!source} when the state behind a read could not be
    observed (the GET failed, as opposed to finding nothing); the
    payload names the failed observation.  Whoever evaluates over a
    lazy source turns it into an undefined verdict. *)

type source = {
  root : string -> Value.t;
      (** the whole value of a free root variable ([Undef] when unbound) *)
  member : string -> string -> Value.t;
      (** [member r f] must equal [Prim.navigate (root r) f]; a lazy
          source computes it from only the state [f] needs *)
  materialize : unit -> Eval.env;
      (** every binding, as an interpreter environment — for a lazy
          source this forces all of its state *)
}
(** Where a frame's context slots come from.  A source may be lazy: the
    frame asks it for a root or a first-level member on the slot's first
    read, and never for a slot that is not read.  Each of the three may
    raise {!Unobservable}. *)

val source_of_env : Eval.env -> source
(** The source over an already-built environment. *)

type frame
(** A runtime environment projected onto a plan's slot layout, plus the
    optional pre-state frame that [pre(...)] evaluates against.  Each
    context slot is filled from the frame's {!source} on its first
    read: a free root variable from [root], a first-level navigation
    [r.f] on a free root (compiled to a slot of its own) from
    [member] — or, when [r]'s own slot already holds a value (read, or
    written with {!write_slot}), by navigating that value. *)

val frame_of_source : plan -> source -> frame

val frame_of_env : plan -> Eval.env -> frame
(** [frame_of_source plan (source_of_env env)]: every plan variable is
    looked up ({!Eval.lookup}) on first read; missing bindings are
    [Undef].  The environment's own attached pre-state is {e not}
    carried over — attach one explicitly with {!with_pre}. *)

val frame_of_bindings : plan -> (string * Cm_json.Json.t) list -> frame

val with_pre : pre:frame -> frame -> frame
(** Attach a pre-state frame (mirrors {!Eval.with_pre}, including the
    idempotence of [pre(...)] inside the pre-state itself). *)

val write_slot : frame -> int -> Value.t -> unit
val read_slot : frame -> int -> Value.t

type t
(** A compiled expression: [frame -> Value.t]. *)

val compile : plan -> Ast.expr -> t
(** [Simplify.simplify] then stage.  Total: evaluation never raises;
    failures yield [Value.Undef], exactly as {!Eval.eval}. *)

val compile_raw : plan -> Ast.expr -> t
(** Stage without the simplification pass (differential-testing hook). *)

val eval : t -> frame -> Value.t
val check : t -> frame -> Value.tribool

val verdict : t -> frame -> Eval.verdict
(** Like {!Eval.verdict} but without the interpreter's fault-localization
    hint (callers wanting a hint re-run the interpreter on the rare
    [Unknown] path). *)
