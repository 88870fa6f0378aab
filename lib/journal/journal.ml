type t = { device : Device.t; mutable appended : int }

let create device = { device; appended = 0 }
let device t = t.device

let append t ev =
  Device.append t.device (Record.frame (Event.encode ev));
  t.appended <- t.appended + 1

let sync t = Device.sync t.device
let appended t = t.appended

let scan device =
  Device.with_view device @@ fun data len ->
  let spans, clean = Record.spans ~len data in
  (* A payload that frames correctly but is not an event ends the
     trustworthy prefix at its frame's start. *)
  let rec loop spans acc =
    match spans with
    | [] -> (List.rev acc, clean)
    | (off, len) :: rest -> (
        match Event.decode_at data ~off ~len with
        | Some ev -> loop rest (ev :: acc)
        | None -> (List.rev acc, off - Record.header_length))
  in
  loop spans []

let truncate_torn device clean =
  Device.truncate device clean;
  Device.sync device
