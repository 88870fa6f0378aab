(** JSON serialization. *)

val to_string : Json.t -> string
(** Compact, single-line serialization.  Strings are escaped per RFC 8259;
    non-ASCII bytes are passed through (documents stay UTF-8). *)

val to_buffer : Buffer.t -> Json.t -> unit
(** {!to_string}, appended to a buffer the caller owns. *)

val to_string_pretty : ?indent:int -> Json.t -> string
(** Multi-line serialization with [indent] spaces per level (default 2) —
    the format used for generated [policy.json] files. *)
