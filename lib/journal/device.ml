(* The bytes live in place in [bytes]; only the first [len] are the
   device's, the rest is spare capacity. *)
type t = {
  mutable bytes : Bytes.t;
  mutable len : int;
  mutable durable : int;
  prng : Cm_core.Prng.t;
  clock : Cm_core.Clock.t;
  sync_latency_ms : int;
  mutable syncs : int;
  mutable crashes : int;
}

let create ?(sync_latency_ms = 1) ?(contents = "") ~clock ~seed () =
  let len = String.length contents in
  let bytes = Bytes.create (max 4096 len) in
  Bytes.blit_string contents 0 bytes 0 len;
  {
    bytes;
    len;
    durable = len;
    prng = Cm_core.Prng.of_seed seed;
    clock;
    sync_latency_ms;
    syncs = 0;
    crashes = 0;
  }

let append t s =
  let n = String.length s in
  if t.len + n > Bytes.length t.bytes then begin
    let grown = Bytes.create (max (t.len + n) (2 * Bytes.length t.bytes)) in
    Bytes.blit t.bytes 0 grown 0 t.len;
    t.bytes <- grown
  end;
  Bytes.blit_string s 0 t.bytes t.len n;
  t.len <- t.len + n

let size t = t.len
let durable_size t = t.durable

let sync t =
  if t.len > t.durable then begin
    Cm_core.Clock.advance t.clock t.sync_latency_ms;
    t.syncs <- t.syncs + 1;
    t.durable <- t.len
  end

let crash t =
  let unsynced = t.len - t.durable in
  let surviving =
    if unsynced = 0 then 0 else Cm_core.Prng.int t.prng (unsynced + 1)
  in
  t.len <- t.durable + surviving;
  t.crashes <- t.crashes + 1

let truncate t n =
  let n = max 0 (min n t.len) in
  t.len <- n;
  t.durable <- min t.durable n

let contents t = Bytes.sub_string t.bytes 0 t.len

let sub t ~off ~len =
  if off < 0 || len < 0 || off > t.len - len then invalid_arg "Device.sub";
  Bytes.sub_string t.bytes off len

(* Only [f] ever sees the bytes as a string, and the device is not
   written while it runs, so no one observes them change. *)
let with_view t f = f (Bytes.unsafe_to_string t.bytes) t.len
let syncs t = t.syncs
let crashes t = t.crashes
