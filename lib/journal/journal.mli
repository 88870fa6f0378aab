(** The durable event journal: framed {!Event}s on a {!Device}.

    Append order is commit order.  {!sync} is the durability barrier;
    {!scan} is the replay read path — it decodes the whole clean prefix
    and reports where the torn tail (if any) starts.  Recovery does not
    use it: {!Jmonitor.recover} checks frames with {!Record.spans},
    reads their headers with {!Event.peek} and decodes only the
    in-flight exchange, then {!truncate_torn}s before appending
    anything new. *)

type t

val create : Device.t -> t
val device : t -> Device.t

val append : t -> Event.t -> unit
(** Frame, checksum and append one event (volatile until {!sync}). *)

val sync : t -> unit

val appended : t -> int
(** Events appended since {!create}. *)

val scan : Device.t -> Event.t list * int
(** [(events, clean)] — every fully persisted, well-formed event in
    order, and the byte offset where the damaged tail begins
    ([Device.size] when the journal is clean).  A record that frames
    correctly but does not decode as an event also ends the clean
    prefix: past it nothing can be trusted.  Cost: one CRC pass and one
    full JSON decode per event. *)

val truncate_torn : Device.t -> int -> unit
(** Drop the torn tail at the offset {!scan} reported and make the
    surviving prefix durable. *)
