(** Contract checking at run time.

    The monitor uses this module per request: check the precondition in
    the observed pre-state, take a snapshot, let the cloud act, then
    check the postcondition in the observed post-state against the
    snapshot.

    {!prepare} stages everything that does not depend on the request —
    snapshot plan, and (with the default {!Compiled} engine) one
    {!Cm_ocl.Compile} closure per contract expression over a shared slot
    plan — so the per-request work is a frame projection plus direct
    closure calls. *)

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

val check_pre : prepared -> Cm_ocl.Eval.env -> Cm_ocl.Eval.verdict
val check_pre_observed : prepared -> observed -> Cm_ocl.Eval.verdict

val covered_requirements : prepared -> Cm_ocl.Eval.env -> string list
(** SecReq ids of the branches active in the pre-state. *)

val covered_requirements_observed : prepared -> observed -> string list

val auth_guard_tri : prepared -> observed -> Cm_ocl.Value.tribool option
(** Truth of the contract's authorization guard in the observed state;
    [None] when the contract has no guard. *)

val functional_pre_tri : prepared -> observed -> Cm_ocl.Value.tribool
(** Truth of the functional (non-authorization) precondition. *)

type snapshot

val take_snapshot : prepared -> Cm_ocl.Eval.env -> snapshot
val take_snapshot_observed : prepared -> observed -> snapshot
(** Under {!Lean}, every snapshot slot is evaluated exactly once. *)

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
  evals : int;  (** top-level expression evaluations *)
  replays : int;
      (** always 0: every check evaluates its expression.  Kept so
          existing readers of the record still compile. *)
}

val eval_stats : prepared -> eval_stats
(** Counters since prepare. *)
