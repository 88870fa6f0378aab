(** Random monitored request sequences over the simulated cloud.

    A trace is an {e abstract} script — users, operations, symbolic
    volume targets — resolved against the live cloud state while it
    runs, so the same trace replays identically on any fresh cloud with
    the same faults (the resolution only depends on cloud state, which
    evolves deterministically).

    For the mutation oracle a trace is [noise @ Drain @ probe]: random
    noise, a deterministic drain that empties the project (so quota and
    attachment state cannot mask the probe), then a randomized probe
    guaranteed by construction to exercise the injected fault — the
    randomized generalization of the paper's three-mutant experiment. *)

type target =
  | Ghost  (** a non-existent id — exercises 404 paths *)
  | Nth of int  (** the [i mod n]-th currently listed volume *)
  | Last_created  (** the most recent successfully created volume *)

type op =
  | List_volumes
  | Create of string * int  (** name, size *)
  | Get of target
  | Update of target * string  (** new name *)
  | Delete of target
  | Attach of target
  | Detach of target
  | Drain  (** detach and delete every volume (as admin) *)

type step = { user : string; op : op }
type t = step list

val gen_noise : t Gen.t
(** Random steps by alice/bob/carol; length grows with [size]. *)

val probe_for : string -> Rng.t -> t
(** Killing steps for the named mutant (names from
    {!Cm_mutation.Mutant}); raises [Invalid_argument] on an unknown
    mutant.  Randomized in its payload, fixed in its shape. *)

val with_probe : mutant:string -> Rng.t -> t -> t
(** [noise @ [Drain as admin] @ probe_for mutant]. *)

val run :
  ?handle:(Cm_monitor.Monitor.t -> Cm_http.Request.t -> Cm_monitor.Outcome.t) ->
  Cm_mutation.Scenario.ctx ->
  t ->
  Cm_monitor.Outcome.t list
(** Execute the trace through the monitor ([handle], default
    {!Cm_monitor.Monitor.handle}, serves each request); returns all
    monitored outcomes (oldest first).  Steps whose target cannot be
    resolved are skipped — identically on every cloud in the same
    state. *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** Compact one-line serialization for corpus files;
    [of_string (to_string t) = Ok t]. *)
