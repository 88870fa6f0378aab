(** JSON text parser (RFC 8259 subset).

    Supports the full JSON grammar: objects, arrays, strings with escape
    sequences (including [\uXXXX] with surrogate pairs), numbers (integers
    parse to {!Json.Int}, anything with a fraction or exponent to
    {!Json.Float}), booleans and [null].  Duplicate object keys are kept
    (first occurrence wins on lookup, matching {!Json.member}). *)

type error = { position : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse : string -> (Json.t, error) result
(** Parse a complete JSON document.  Trailing garbage after the document is
    an error. *)

val parse_sub : string -> off:int -> len:int -> (Json.t, error) result
(** [parse_sub s ~off ~len] parses the complete document occupying the
    [len] bytes of [s] at [off], in place (no copy of the slice); error
    positions are offsets into [s].  Requires
    [0 <= off <= off + len <= String.length s]. *)

val parse_exn : string -> Json.t
(** Like {!parse} but raises [Failure] with a formatted message. *)
