let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_buffer buf json =
  let rec emit = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (string_of_bool b)
    | Json.Int n -> Buffer.add_string buf (string_of_int n)
    | Json.Float f -> Buffer.add_string buf (float_repr f)
    | Json.String s -> escape_string buf s
    | Json.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit item)
        items;
      Buffer.add_char buf ']'
    | Json.Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          emit v)
        members;
      Buffer.add_char buf '}'
  in
  emit json

let to_string json =
  let buf = Buffer.create 256 in
  to_buffer buf json;
  Buffer.contents buf

let to_string_pretty ?(indent = 2) json =
  let buf = Buffer.create 256 in
  let pad depth = Buffer.add_string buf (String.make (depth * indent) ' ') in
  let rec emit depth = function
    | (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _) as
      atom -> Buffer.add_string buf (to_string atom)
    | Json.List [] -> Buffer.add_string buf "[]"
    | Json.List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (depth + 1);
          emit (depth + 1) item)
        items;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf ']'
    | Json.Obj [] -> Buffer.add_string buf "{}"
    | Json.Obj members ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (depth + 1);
          escape_string buf k;
          Buffer.add_string buf ": ";
          emit (depth + 1) v)
        members;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf '}'
  in
  emit 0 json;
  Buffer.contents buf
