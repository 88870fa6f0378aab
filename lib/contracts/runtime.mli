(** Contract checking at run time.

    The monitor uses this module per request: run the {!pre_phase} over
    the observed pre-state (precondition, covered requirements,
    authorization and functional guards, snapshot), let the cloud act,
    then check the postcondition in the observed post-state against the
    snapshot.

    {!prepare} stages everything that does not depend on the request —
    snapshot plan, and (with the default {!Compiled} engine) one
    {!Cm_ocl.Compile} closure per contract expression over a shared slot
    plan — so the per-request work is a frame projection plus direct
    closure calls: one per branch guard, and few more. *)

type strategy =
  | Lean  (** snapshot only the values under [pre(...)] — the paper's *)
  | Full  (** retain the whole pre-state environment *)

type engine =
  | Interpreted  (** walk the AST with {!Cm_ocl.Eval} on every check *)
  | Compiled     (** evaluate staged closures ({!Cm_ocl.Compile}) *)

type subscription = {
  sub_events : (Cm_http.Meth.t * string * bool) list;
      (** the (method, resource, tenant-keyed) events whose write effects
          can change this contract's verdict — lowercased resource names,
          sorted (resource, method) *)
  sub_identity : bool;
      (** subscribed to the identity (token-revocation) pseudo-event *)
  sub_shard_closed : bool;
      (** every subscribed event is tenant-keyed: the contract's verdicts
          are a function of one tenant's event stream *)
}
(** Statically computed event interest.  Produced by the analysis layer
    and threaded in through {!prepare}; the runtime stores and serves
    it. *)

type prepared
(** A contract with its snapshot plan compiled and its expressions
    staged (do this once, not per request). *)

val prepare :
  ?strategy:strategy -> ?engine:engine -> ?subscription:subscription ->
  Contract.t -> prepared
(** Defaults: [Lean], [Compiled], no subscription. *)

val subscription : prepared -> subscription option

val subscribed_to :
  prepared -> meth:Cm_http.Meth.t -> resource:string -> bool
(** Can a request on [(meth, resource)] change this contract's verdict?
    Conservatively [true] when no subscription was supplied. *)

val contract : prepared -> Contract.t
val strategy : prepared -> strategy
val engine : prepared -> engine

val footprint : prepared -> Cm_ocl.Footprint.t
(** Static read-set over all of the contract's expressions (pre,
    functional pre, auth guard, branches, post).  The observer prunes
    its state fetches to this. *)

type observed
(** One observed cloud state: the observer's environment plus its
    one-time projection onto the contract's compiled frame.  Build it
    once per observation and reuse it for every check against that
    state. *)

val observe : prepared -> Cm_ocl.Eval.env -> observed
(** Project an environment onto a fresh frame of the contract's plan. *)

val observed_env : observed -> Cm_ocl.Eval.env

type snapshot

type pre_phase = {
  verdict : Cm_ocl.Eval.verdict;  (** the precondition *)
  covered : string list;
      (** SecReq ids of the branches active in the pre-state, sorted *)
  auth : Cm_ocl.Value.tribool option;
      (** truth of the authorization guard; [None] when the contract
          has none *)
  functional : Cm_ocl.Value.tribool;
      (** truth of the functional (non-authorization) precondition *)
  snapshot : snapshot;  (** the pre-state the postcondition is checked against *)
}
(** Everything the monitor concludes from one observed pre-state. *)

val pre_phase : prepared -> observed -> pre_phase
(** The whole pre-phase of one exchange.

    Under {!Compiled} it is one pass over the branch guards
    [inv(source) ∧ guard ∧ auth]: each staged guard runs once and the
    other answers are derived from the guard values —
    - the precondition is their Kleene disjunction (the contract's
      [pre] is that disjunction, simplified, and {!Cm_ocl.Simplify} is
      Kleene-sound);
    - [covered] is the requirements of the guards that are true;
    - [functional] equals the precondition when the authorization guard
      is absent or true ([x ∧ true = x]); otherwise the functional
      precondition is evaluated;
    - a {!Lean} snapshot slot whose expression is a branch guard (and
      reads no [pre()]) takes that guard's value verbatim, so journaled
      pre-images are the same bytes as an independent evaluation.
    An undefined precondition re-runs {!Cm_ocl.Eval} for its hint.

    Under {!Interpreted} every original expression is evaluated on its
    own — the independent reference the differential tests and oracles
    check the derivation against. *)

val take_snapshot : prepared -> observed -> snapshot
(** The snapshot alone, every {!Lean} slot evaluated once (crash
    recovery's fallback, and the snapshot ablation). *)

val snapshot_bytes : snapshot -> int

val snapshot_values : snapshot -> (string * Cm_ocl.Value.t) list option
(** The serializable face of a {!Lean} snapshot: its (slot, value)
    list, exactly as {!snapshot_of_values} will rebuild it.  [None] for
    {!Full} snapshots, which hold a live frame and cannot be persisted
    — the crash-recovery journal only runs under [Lean]. *)

val snapshot_of_values : (string * Cm_ocl.Value.t) list -> snapshot
(** Rebuild a [Lean] snapshot from journaled slot values.
    [check_post_observed] over the result is verdict-identical to the
    original snapshot. *)

val check_post :
  prepared -> snapshot -> Cm_ocl.Eval.env -> Cm_ocl.Eval.verdict

val check_post_observed :
  prepared -> snapshot -> observed -> Cm_ocl.Eval.verdict

(** {2 Evaluation statistics} *)

type eval_stats = {
  evals : int;
      (** top-level expression evaluations: one per staged closure run
          (or, under {!Interpreted}, per expression walked).  A
          {!Compiled} {!pre_phase} counts each branch guard, the
          authorization guard, the functional precondition only when
          it is evaluated, and each snapshot slot not taken from a
          guard; every postcondition check counts one.  Answers
          derived from the guard values, and the interpreter re-run for
          an undefined precondition's hint, count nothing. *)
  replays : int;
      (** always 0: every check evaluates its expression.  Kept so
          existing readers of the record still compile. *)
}

val eval_stats : prepared -> eval_stats
(** Counters since prepare. *)
