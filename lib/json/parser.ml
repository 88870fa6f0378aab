type error = { position : int; message : string }

let pp_error ppf { position; message } =
  Fmt.pf ppf "JSON parse error at offset %d: %s" position message

exception Parse_error of error

type state = { input : string; limit : int; mutable pos : int }

let fail st message = raise (Parse_error { position = st.pos; message })

let peek st =
  if st.pos < st.limit then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | Some got -> fail st (Printf.sprintf "expected %C, found %C" c got)
  | None -> fail st (Printf.sprintf "expected %C, found end of input" c)

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | Some _ | None -> ()

let expect_keyword st keyword value =
  let len = String.length keyword in
  if
    st.pos + len <= st.limit
    && String.sub st.input st.pos len = keyword
  then begin
    st.pos <- st.pos + len;
    value
  end
  else fail st (Printf.sprintf "expected %s" keyword)

let is_digit c = c >= '0' && c <= '9'

(* UTF-8 encode one code point into the buffer. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "invalid hex digit in \\u escape"
  in
  let take () =
    match peek st with
    | Some c ->
      advance st;
      digit c
    | None -> fail st "truncated \\u escape"
  in
  let d1 = take () in
  let d2 = take () in
  let d3 = take () in
  let d4 = take () in
  (d1 lsl 12) lor (d2 lsl 8) lor (d3 lsl 4) lor d4

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' ->
      advance st;
      (match peek st with
       | None -> fail st "unterminated escape"
       | Some c ->
         advance st;
         (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let cp = parse_hex4 st in
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* High surrogate: a low surrogate must follow. *)
              expect st '\\';
              expect st 'u';
              let low = parse_hex4 st in
              if low < 0xDC00 || low > 0xDFFF then
                fail st "invalid low surrogate"
              else
                add_utf8 buf
                  (0x10000 + (((cp - 0xD800) lsl 10) lor (low - 0xDC00)))
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then
              fail st "unpaired low surrogate"
            else add_utf8 buf cp
          | _ -> fail st (Printf.sprintf "invalid escape \\%c" c)));
      loop ()
    | Some c when Char.code c < 0x20 -> fail st "control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  if peek st = Some '-' then advance st;
  let rec digits () =
    match peek st with
    | Some c when is_digit c ->
      advance st;
      digits ()
    | Some _ | None -> ()
  in
  (match peek st with
   | Some '0' -> advance st
   | Some c when is_digit c -> digits ()
   | Some _ | None -> fail st "invalid number");
  (match peek st with
   | Some '.' ->
     is_float := true;
     advance st;
     (match peek st with
      | Some c when is_digit c -> digits ()
      | Some _ | None -> fail st "digits expected after decimal point")
   | Some _ | None -> ());
  (match peek st with
   | Some ('e' | 'E') ->
     is_float := true;
     advance st;
     (match peek st with
      | Some ('+' | '-') -> advance st
      | Some _ | None -> ());
     (match peek st with
      | Some c when is_digit c -> digits ()
      | Some _ | None -> fail st "digits expected in exponent")
   | Some _ | None -> ());
  let text = String.sub st.input start (st.pos - start) in
  if !is_float then Json.Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some n -> Json.Int n
    | None -> Json.Float (float_of_string text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> Json.String (parse_string st)
  | Some 't' -> expect_keyword st "true" (Json.Bool true)
  | Some 'f' -> expect_keyword st "false" (Json.Bool false)
  | Some 'n' -> expect_keyword st "null" Json.Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Json.Obj []
  end
  else begin
    let rec members acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        members ((key, value) :: acc)
      | Some '}' ->
        advance st;
        List.rev ((key, value) :: acc)
      | Some c -> fail st (Printf.sprintf "expected ',' or '}', found %C" c)
      | None -> fail st "unterminated object"
    in
    Json.Obj (members [])
  end

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    Json.List []
  end
  else begin
    let rec elements acc =
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        elements (value :: acc)
      | Some ']' ->
        advance st;
        List.rev (value :: acc)
      | Some c -> fail st (Printf.sprintf "expected ',' or ']', found %C" c)
      | None -> fail st "unterminated array"
    in
    Json.List (elements [])
  end

let parse_sub input ~off ~len =
  let st = { input; limit = off + len; pos = off } in
  match
    let value = parse_value st in
    skip_ws st;
    (match peek st with
     | Some _ -> fail st "trailing garbage after JSON document"
     | None -> ());
    value
  with
  | value -> Ok value
  | exception Parse_error err -> Error err

let parse input = parse_sub input ~off:0 ~len:(String.length input)

let parse_exn input =
  match parse input with
  | Ok value -> value
  | Error err -> failwith (Fmt.str "%a" pp_error err)
