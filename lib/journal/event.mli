(** Journal events and their (JSON) payload serialization.

    One monitored exchange produces up to three events, all carrying
    the same sequence number:

    - [Request] — the incoming request, verbatim, tagged with its
      idempotency key ([X-Request-Id]); appended {e and synced} before
      anything is forwarded.
    - [Pre] — the pre-phase conclusion ({!Cm_monitor.Monitor.pre_image})
      of a contracted request; synced before the forward, so recovery
      never has to re-observe a pre-state the effect may already have
      destroyed.
    - [Verdict] — the exchange's conformance verdict and response;
      group-committed (rides unsynced until the next barrier or batch
      flush).

    [Mark] records out-of-band actions (relogins, tenant churn) so a
    replay can re-perform them in sequence; it carries no verdict.

    A payload is a one-line header followed by a JSON body:

    {v <tag> <seq>[ <n>:<rid>]\n<json> v}

    The tag is [r]/[p]/[v]/[m] (Request/Pre/Verdict/Mark) and [seq] is
    the sequence number in decimal.  A Verdict's header also carries
    its idempotency key, length-prefixed ([v 812 6:stp-12]), so a key
    of any bytes — spaces and newlines included — round-trips; the
    other kinds carry no key in the header (a Request's key is in its
    body), which keeps the header under 5% of an exchange's journal
    bytes.  The body repeats tag, seq and key, and {!decode} checks
    that the two agree.  Recovery reads only headers ({!peek}) and
    decodes the JSON of the few events it acts on; replay and the
    oracles decode everything.  The body is
    line-oriented JSON — human-greppable — and decode failures are soft
    ([None]) because a journal tail can be torn. *)

type verdict_record = {
  v_seq : int;
  v_rid : string;  (** the request's idempotency key *)
  v_meth : string;
  v_path : string;
  v_status : int;  (** status the monitor returned upstream *)
  v_conformance : string;  (** [Outcome.conformance_to_string] *)
  v_detail : string;
  v_covered : string list;
  v_body : Cm_json.Json.t option;
      (** response body — replays resolve created ids from it *)
}

type t =
  | Request of { seq : int; rid : string; req : Cm_http.Request.t }
  | Pre of { seq : int; image : Cm_monitor.Monitor.pre_image }
  | Verdict of verdict_record
  | Mark of { seq : int; note : string }

type kind = Request_kind | Pre_kind | Verdict_kind | Mark_kind

val seq : t -> int

val encode : t -> string
(** Header and JSON body, written into one buffer. *)

val peek : string -> off:int -> len:int -> (kind * int * string) option
(** [peek s ~off ~len] reads the header of the payload occupying the
    [len] bytes of [s] at [off], in place: [(kind, seq, rid)], with
    [rid = ""] for every kind but Verdict.  [None] when the bytes do not start
    with a well-formed header (or the slice is out of bounds) — never
    raises, and allocates nothing but the rid and the result.  Header
    numbers have at most 18 digits, so a negative or larger [seq] is
    encoded but does not peek (sequence numbers count up from 1). *)

val decode_at : string -> off:int -> len:int -> t option
(** Decode the payload occupying [len] bytes of [s] at [off], parsing
    its JSON body in place.  [None] on any malformed payload, and when
    the header and the body disagree on kind, seq or rid — never
    raises. *)

val decode : string -> t option
(** [decode p] is [decode_at p ~off:0 ~len:(String.length p)]. *)

val verdict_line : verdict_record -> string
(** Canonical one-line rendering of a verdict, used wherever two
    verdict streams are compared for bit-identity (live vs. replayed,
    pre- vs. post-crash).  Includes the response body in canonical
    (key-sorted) form. *)

val pp : Format.formatter -> t -> unit
