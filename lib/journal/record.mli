(** Length-prefixed, checksummed record framing for the event journal.

    Each record is [magic "J1" (2B) | payload length (4B LE) |
    CRC-32 of payload (4B LE) | payload].  {!spans} walks a byte
    string and locates every record that is completely and correctly
    present, checking each checksum in place; it stops at the first
    frame that is torn (runs past the end of the data), has a bad
    magic, or fails its checksum — everything from that offset on is
    the crash's torn tail and must be discarded.

    The checksum kernel is slice-by-8 (eight 256-entry tables, eight
    input bytes per step, a bytewise tail); it runs over every byte of
    a journal at recovery and over every payload on append.

    CRC-32 (IEEE 802.3 polynomial) detects all single-byte corruptions
    and all burst errors up to 32 bits, which covers the torn-write
    model: a partially persisted record is either short (torn) or has
    trailing garbage where payload bytes should be (checksum). *)

val magic : string
(** ["J1"]. *)

val header_length : int
(** Bytes of framing per record (magic + length + checksum = 10). *)

val crc32_at : string -> off:int -> len:int -> int
(** IEEE CRC-32 of the [len] bytes of the string at [off], as a
    non-negative int below 2^32.  Raises [Invalid_argument] when the
    slice is out of bounds. *)

val crc32 : string -> int
(** CRC-32 of the whole string. *)

val frame : string -> string
(** Wrap a payload in a frame. *)

val spans : ?len:int -> string -> (int * int) list * int
(** [spans data] is [(spans, clean)]: [(offset, length)] of every
    well-formed record's payload inside [data], in order, and the byte
    offset at which the first damaged frame (if any) begins —
    [String.length data] when the whole string is clean.  Nothing is
    copied.  [~len] limits the walk to the first [len] bytes of [data]
    (a {!Device.with_view}); it raises [Invalid_argument] when it
    exceeds the string. *)

val scan : string -> string list * int
(** {!spans}, with each payload copied out. *)
