(** The differential oracles the fuzzer drives.

    - [engine]: random well-typed OCL expressions must evaluate to the
      same value and Kleene verdict under the staged compiler
      ({!Cm_ocl.Compile}, both the simplifying and raw pipelines) and
      the tree-walking interpreter ({!Cm_ocl.Eval}), in every random
      environment, with and without an attached pre-state.
    - [rbac]: on random security tables, role assignments and subjects,
      the generated OCL authorization guard must agree between both
      engines {e and} with the reference access decision
      ({!Cm_rbac.Security_table.allowed}).
    - [codegen]: random expressions and random state-machine models must
      survive the printers — pretty-print/re-parse is the identity, and
      the OCL-to-Python translation of generated contracts never raises.
    - [monitor]: random request traces against the simulated cloud must
      produce identical verdict sequences under Interpreted and Compiled
      monitors, no violation on the fault-free cloud, and at least one
      violation for every injected mutant (the randomized
      generalization of the paper's three-mutant experiment).

    Every case is a pure function of [(seed, index, size)]; a failure is
    shrunk greedily and packaged as a replayable {!Corpus.entry}. *)

type failure = {
  oracle : string;
  index : int;
  repr : string;  (** shrunk counterexample, human-readable *)
  detail : string;  (** what disagreed *)
  shrink_steps : int;
  entry : Corpus.entry;  (** replayable record for the corpus *)
}

type verdict = Pass | Fail of failure

type t = {
  name : string;
  weight : int;  (** share of the case budget *)
  run_case : shrink:bool -> seed:int -> index:int -> size:int -> verdict;
  replay : Corpus.entry -> (unit, string) result;
      (** Re-check a corpus entry; [Ok ()] means it passes now. *)
}

val engine : t
val rbac : t
val codegen : t
val monitor : t

val outcome_key : Cm_monitor.Outcome.t -> string
(** An exchange's status, conformance class, pre/post verdict classes
    and covered requirements as one comparable string.  Undefined
    verdicts drop their fault-localization hint, which differs between
    the interpreted and compiled engines; everything else must agree
    between the two. *)

val chaos : t
(** Verdict integrity under unreliable transport: a random trace runs
    once fault-free and once under a random bounded chaos profile
    ({!Chaos_gen}) with the monitor's resilience layer on.  Definite
    verdicts must not flip between the two runs, and a mutant the
    fault-free run kills must still be killed under chaos. *)

val workload : t
(** Workload-DSL integrity: compiling the case's (mix, seed) twice must
    yield bit-identical traces, and executing the trace against the
    cross-service monitor must produce identical {!outcome_key}
    sequences under the compiled engine and the interpreted reference,
    with a violation-free baseline. *)

val journal : t
(** Durable-journal integrity: the case's workload mix is recorded live
    through the journaled monitor, then the scanned journal is replayed
    against a fresh same-seed cloud under the compiled engine and the
    interpreted reference.  The compiled replay's verdict lines must be
    bit-identical to the journaled ones, and the two replays must agree
    on every {!outcome_key}. *)

val lazy_observation : t
(** Lazy observation against the eager reference.  A random trace
    (every mutant, both modes, every named chaos profile, fault-free
    included) runs twice on identically seeded clouds: once through
    {!Cm_monitor.Monitor.handle}, and once through
    {!Cm_monitor.Monitor.handle_forced}, which forces every observation
    before evaluating it.  The chaos transport keys its faults by the
    request, so a GET meets the same fault in both runs and the lazy
    run reads a subset of the forced run's responses.  Every exchange
    must look the same to the client and the operator (status,
    conformance, detail, covered requirements, body).  The one permitted
    difference: the forced verdict is [Undefined] or [Degraded] — it met
    a failed observation.  The lazy verdict is then either definite,
    settled by Kleene logic without that observation, or indefinite
    too, having met a failure first in its own reading order.  Such a
    difference is counted ({!lazy_differences}) and ends the comparison
    of that trace, since the two clouds may diverge after it.  Not part
    of {!all}: run it by name ([--oracle lazy]). *)

val lazy_differences : unit -> int * int * int
(** [(compared, settled, both_indefinite)]: exchanges the lazy oracle
    compared in this process so far, and the permitted differences
    among them whose lazy verdict was definite, resp. indefinite. *)

val all : t list

val every : t list
(** {!all} and {!lazy_observation}. *)

val find : string -> t option
(** Look up any oracle of {!every} by name. *)
