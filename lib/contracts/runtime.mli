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

type cost_model = {
  units : string -> Cm_ocl.Footprint.fields -> string list;
      (** [units root fields] names the observation GETs behind reading
          [fields] of the root binding [root] *)
  addressed : string -> bool;
      (** is this root an item the request's URI addresses? *)
}
(** What observing a root costs — the order the pre-phase evaluates
    each guard's conjuncts in is computed from it once, here.  The
    monitor passes its observer's model
    ([Cm_monitor.Observer.cost_model]). *)

val written_order : cost_model
(** Every read costs nothing and no root is addressed: each guard's
    conjuncts run in their written order.  For evaluation over a
    prebuilt environment, where no read costs a GET. *)

val prepare :
  ?strategy:strategy -> ?engine:engine -> ?subscription:subscription ->
  cost:cost_model -> Contract.t -> prepared
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
(** One observed cloud state: the contract's compiled frame over the
    observer's (possibly lazy) source.  Build it once per observation
    and reuse it for every check against that state. *)

val observe_source : prepared -> Cm_ocl.Compile.source -> observed
(** A fresh frame of the contract's plan over a source; a lazy source
    is read only as far as the checks run against it need. *)

val observe : prepared -> Cm_ocl.Eval.env -> observed
(** [observe_source] over an already-built environment. *)

val observed_env : observed -> Cm_ocl.Eval.env
(** The whole observation as an interpreter environment.  Forces every
    observation behind a lazy source. *)

val force : observed -> unit
(** Force every observation behind the source now — the eager
    reference: a frame forced before the guards run. *)

type snapshot

type pre_phase = {
  verdict : Cm_ocl.Eval.verdict;  (** the precondition *)
  covered : string list;
      (** SecReq ids of the branches active in the pre-state, sorted *)
  auth : Cm_ocl.Value.tribool option;
      (** truth of the authorization guard; [None] when the contract
          has none *)
  functional : Cm_ocl.Value.tribool Lazy.t;
      (** truth of the functional (non-authorization) precondition *)
  snapshot : snapshot Lazy.t;
      (** the pre-state the postcondition is checked against *)
}
(** Everything the monitor concludes from one observed pre-state.
    [functional] and [snapshot] may read more of the observation when
    forced, so a caller that needs them must force them {e before} the
    monitored request is forwarded — after it, an unread observation
    would see the post-state. *)

val pre_phase : prepared -> observed -> pre_phase
(** The whole pre-phase of one exchange.

    Under {!Compiled} the authorization guard runs first, then one pass
    over the branch guards [inv(source) ∧ guard ∧ auth], each split into
    conjuncts that run in an order fixed by {!prepare} (fewest unread
    GETs first, ties to the request's addressed item) and stop at the
    first False.  Where {!prepare} found the authorization guard
    conjoined into every branch guard, its value stands in for its
    conjuncts, so a definite False settles every guard from the subject
    alone.  The other answers are derived from the guard values —
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

    A read the source cannot observe ({!Cm_ocl.Compile.Unobservable})
    makes every answer undefined: the verdict carries the failed
    observation as its hint, [auth] (when the contract has one) and
    [functional] are Unknown, nothing is covered, and the snapshot is
    unobserved.  A failed read while forcing [functional] makes it
    Unknown; while forcing the snapshot, makes the snapshot unobserved.

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
    — the crash-recovery journal only runs under [Lean] — and for an
    unobserved pre-state. *)

val snapshot_of_values : (string * Cm_ocl.Value.t) list -> snapshot
(** Rebuild a [Lean] snapshot from journaled slot values.
    [check_post_observed] over the result is verdict-identical to the
    original snapshot. *)

val check_post :
  prepared -> snapshot -> Cm_ocl.Eval.env -> Cm_ocl.Eval.verdict

val check_post_observed :
  prepared -> snapshot -> observed -> Cm_ocl.Eval.verdict
(** Undefined, with the failed observation as its hint, when the
    post-state read or the snapshot could not be observed. *)

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
