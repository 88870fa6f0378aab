let magic = "J1"
let header_length = 10

(* IEEE CRC-32, slice-by-8.  Hand-rolled: the toolchain image has no
   zlib binding.  [tables] holds eight 256-entry tables back to back:
   table 0 is the classic bytewise table, and table k advances a byte
   through k further zero bytes, so one step folds eight input bytes
   with eight lookups instead of eight dependent shift-and-lookups. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let le32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

let crc32_at s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Record.crc32_at";
  let t = Lazy.force tables in
  (* every index below is masked to a byte, so it stays inside its table *)
  let tb k i = Array.unsafe_get t ((k lsl 8) lor (i land 0xFF)) in
  let c = ref 0xFFFFFFFF in
  let pos = ref off in
  let stop8 = off + (len land lnot 7) in
  while !pos < stop8 do
    let lo = !c lxor le32 s !pos in
    let hi = le32 s (!pos + 4) in
    c :=
      tb 7 lo
      lxor tb 6 (lo lsr 8)
      lxor tb 5 (lo lsr 16)
      lxor tb 4 (lo lsr 24)
      lxor tb 3 hi
      lxor tb 2 (hi lsr 8)
      lxor tb 1 (hi lsr 16)
      lxor tb 0 (hi lsr 24);
    pos := !pos + 8
  done;
  for i = stop8 to off + len - 1 do
    c := tb 0 (!c lxor Char.code (String.unsafe_get s i)) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_at s ~off:0 ~len:(String.length s)

let frame payload =
  let plen = String.length payload in
  let b = Bytes.create (header_length + plen) in
  Bytes.blit_string magic 0 b 0 2;
  Bytes.set_int32_le b 2 (Int32.of_int plen);
  Bytes.set_int32_le b 6 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b header_length plen;
  Bytes.unsafe_to_string b

let spans ?len data =
  let len =
    match len with
    | None -> String.length data
    | Some len ->
      if len < 0 || len > String.length data then invalid_arg "Record.spans";
      len
  in
  let rec loop pos acc =
    if
      pos + header_length > len
      || data.[pos] <> magic.[0]
      || data.[pos + 1] <> magic.[1]
    then (List.rev acc, pos)
    else
      let plen = le32 data (pos + 2) in
      let off = pos + header_length in
      if plen > len - off || crc32_at data ~off ~len:plen <> le32 data (pos + 6)
      then (List.rev acc, pos)
      else loop (off + plen) ((off, plen) :: acc)
  in
  loop 0 []

let scan data =
  let spans, clean = spans data in
  (List.map (fun (off, len) -> String.sub data off len) spans, clean)
