module J = Cm_json.Json

type verdict_record = {
  v_seq : int;
  v_rid : string;
  v_meth : string;
  v_path : string;
  v_status : int;
  v_conformance : string;
  v_detail : string;
  v_covered : string list;
  v_body : Cm_json.Json.t option;
}

type t =
  | Request of { seq : int; rid : string; req : Cm_http.Request.t }
  | Pre of { seq : int; image : Cm_monitor.Monitor.pre_image }
  | Verdict of verdict_record
  | Mark of { seq : int; note : string }

type kind = Request_kind | Pre_kind | Verdict_kind | Mark_kind

let seq = function
  | Request { seq; _ } | Pre { seq; _ } | Mark { seq; _ } -> seq
  | Verdict v -> v.v_seq

let kind = function
  | Request _ -> Request_kind
  | Pre _ -> Pre_kind
  | Verdict _ -> Verdict_kind
  | Mark _ -> Mark_kind

(* ---- the header line: [tag ' ' seq [' ' len ':' rid] '\n'] ---- *)

(* Only a Verdict's header carries its key: recovery indexes verdicts by
   key from headers alone, while the few requests it finishes are
   decoded in full anyway.  Keeping the key out of the other headers
   keeps the journal's growth per exchange small. *)
let header_rid = function
  | Verdict v -> v.v_rid
  | Request _ | Pre _ | Mark _ -> ""

let tag_of_kind = function
  | Request_kind -> 'r'
  | Pre_kind -> 'p'
  | Verdict_kind -> 'v'
  | Mark_kind -> 'm'

let add_header b ev =
  let k = kind ev in
  Buffer.add_char b (tag_of_kind k);
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int (seq ev));
  (match ev with
   | Verdict { v_rid; _ } ->
       Buffer.add_char b ' ';
       Buffer.add_string b (string_of_int (String.length v_rid));
       Buffer.add_char b ':';
       Buffer.add_string b v_rid
   | Request _ | Pre _ | Mark _ -> ());
  Buffer.add_char b '\n'

(* Numbers in a header have at most 18 digits, so they never overflow
   and need no allocation to parse; a leading zero is rejected, keeping
   the header canonical (decode . encode is the identity on bytes). *)
let max_digits = 18

(* End of the canonical decimal at [pos] (before [stop]), or -1. *)
let digits_end s pos stop =
  let rec go i =
    if i < stop && i - pos <= max_digits && s.[i] >= '0' && s.[i] <= '9' then
      go (i + 1)
    else i
  in
  let e = go pos in
  if e = pos || e - pos > max_digits || (s.[pos] = '0' && e - pos > 1) then -1
  else e

let digits_value s pos e =
  let rec go i acc =
    if i = e then acc else go (i + 1) ((acc * 10) + Char.code s.[i] - 48)
  in
  go pos 0

(* [Some (kind, seq, rid, body)] where [body] is the offset of the JSON
   body, when the [len] bytes at [off] start with a well-formed header. *)
let header s ~off ~len =
  let stop = off + len in
  if off < 0 || len < 4 || stop > String.length s || s.[off + 1] <> ' ' then
    None
  else
    let kind =
      match s.[off] with
      | 'r' -> Some Request_kind
      | 'p' -> Some Pre_kind
      | 'v' -> Some Verdict_kind
      | 'm' -> Some Mark_kind
      | _ -> None
    in
    let e = digits_end s (off + 2) stop in
    match kind with
    | None -> None
    | Some _ when e < 0 || e >= stop -> None
    | Some kind -> (
        let seq = digits_value s (off + 2) e in
        match kind with
        | Request_kind | Pre_kind | Mark_kind ->
            if s.[e] = '\n' then Some (kind, seq, "", e + 1) else None
        | Verdict_kind ->
            let le = if s.[e] = ' ' then digits_end s (e + 1) stop else -1 in
            if le < 0 || le >= stop || s.[le] <> ':' then None
            else
              let rlen = digits_value s (e + 1) le in
              let nl = le + 1 + rlen in
              if nl >= stop || s.[nl] <> '\n' then None
              else Some (kind, seq, String.sub s (le + 1) rlen, nl + 1))

let peek s ~off ~len =
  match header s ~off ~len with
  | Some (kind, seq, rid, _) -> Some (kind, seq, rid)
  | None -> None

(* Options are wrapped in a singleton list ([Null] = absent) so that
   [Some Null] bodies survive a round-trip. *)
let opt enc = function None -> J.Null | Some x -> J.List [ enc x ]

let dec_opt dec = function
  | J.Null -> Some None
  | J.List [ x ] -> Option.map Option.some (dec x)
  | _ -> None

let enc_pairs ps =
  J.List (List.map (fun (k, v) -> J.List [ J.String k; J.String v ]) ps)

let dec_pairs j =
  match j with
  | J.List items ->
      let pair = function
        | J.List [ J.String k; J.String v ] -> Some (k, v)
        | _ -> None
      in
      let ps = List.filter_map pair items in
      if List.length ps = List.length items then Some ps else None
  | _ -> None

let enc_verdict = function
  | Cm_ocl.Eval.Holds -> J.String "H"
  | Cm_ocl.Eval.Violated -> J.String "V"
  | Cm_ocl.Eval.Undefined_verdict hint -> J.List [ J.String "U"; J.String hint ]

let dec_verdict = function
  | J.String "H" -> Some Cm_ocl.Eval.Holds
  | J.String "V" -> Some Cm_ocl.Eval.Violated
  | J.List [ J.String "U"; J.String hint ] ->
      Some (Cm_ocl.Eval.Undefined_verdict hint)
  | _ -> None

let enc_tri = function
  | Cm_ocl.Value.True -> J.String "T"
  | Cm_ocl.Value.False -> J.String "F"
  | Cm_ocl.Value.Unknown -> J.String "U"

let dec_tri = function
  | J.String "T" -> Some Cm_ocl.Value.True
  | J.String "F" -> Some Cm_ocl.Value.False
  | J.String "U" -> Some Cm_ocl.Value.Unknown
  | _ -> None

let enc_value = function
  | Cm_ocl.Value.Undef -> J.List [ J.String "u" ]
  | Cm_ocl.Value.Json j -> J.List [ J.String "j"; j ]

let dec_value = function
  | J.List [ J.String "u" ] -> Some Cm_ocl.Value.Undef
  | J.List [ J.String "j"; j ] -> Some (Cm_ocl.Value.Json j)
  | _ -> None

let enc_snapshot slots =
  J.List
    (List.map (fun (slot, v) -> J.List [ J.String slot; enc_value v ]) slots)

let dec_snapshot j =
  match j with
  | J.List items ->
      let slot = function
        | J.List [ J.String name; v ] ->
            Option.map (fun v -> (name, v)) (dec_value v)
        | _ -> None
      in
      let ss = List.filter_map slot items in
      if List.length ss = List.length items then Some ss else None
  | _ -> None

let enc_strings ss = J.List (List.map (fun s -> J.String s) ss)

let dec_strings = function
  | J.List items ->
      let s = function J.String s -> Some s | _ -> None in
      let ss = List.filter_map s items in
      if List.length ss = List.length items then Some ss else None
  | _ -> None

let encode ev =
  let b = Buffer.create 256 in
  add_header b ev;
  let json =
    match ev with
    | Request { seq; rid; req } ->
        J.Obj
          [
            ("t", J.String "req");
            ("seq", J.Int seq);
            ("rid", J.String rid);
            ("meth", J.String (Cm_http.Meth.to_string req.Cm_http.Request.meth));
            ("path", J.String req.Cm_http.Request.path);
            ("query", enc_pairs req.Cm_http.Request.query);
            ( "headers",
              enc_pairs (Cm_http.Headers.to_list req.Cm_http.Request.headers) );
            ("body", opt Fun.id req.Cm_http.Request.body);
          ]
    | Pre { seq; image } ->
        J.Obj
          [
            ("t", J.String "pre");
            ("seq", J.Int seq);
            ("pre", enc_verdict image.Cm_monitor.Monitor.pi_pre_verdict);
            ("auth", opt enc_tri image.Cm_monitor.Monitor.pi_auth);
            ("fn", enc_tri image.Cm_monitor.Monitor.pi_functional);
            ("cov", enc_strings image.Cm_monitor.Monitor.pi_covered);
            ("snap", opt enc_snapshot image.Cm_monitor.Monitor.pi_snapshot);
          ]
    | Verdict v ->
        J.Obj
          [
            ("t", J.String "ver");
            ("seq", J.Int v.v_seq);
            ("rid", J.String v.v_rid);
            ("meth", J.String v.v_meth);
            ("path", J.String v.v_path);
            ("status", J.Int v.v_status);
            ("conf", J.String v.v_conformance);
            ("detail", J.String v.v_detail);
            ("cov", enc_strings v.v_covered);
            ("body", opt Fun.id v.v_body);
          ]
    | Mark { seq; note } ->
        J.Obj
          [ ("t", J.String "mark"); ("seq", J.Int seq); ("note", J.String note) ]
  in
  Cm_json.Printer.to_buffer b json;
  Buffer.contents b

let field name j = J.member name j
let str name j = Option.bind (field name j) J.to_string
let int_f name j = Option.bind (field name j) J.to_int

let ( let* ) = Option.bind

let decode_json j =
  let* tag = str "t" j in
  let* seq = int_f "seq" j in
  match tag with
  | "req" ->
      let* rid = str "rid" j in
      let* meth = Option.bind (str "meth" j) Cm_http.Meth.of_string in
      let* path = str "path" j in
      let* query = Option.bind (field "query" j) dec_pairs in
      let* headers = Option.bind (field "headers" j) dec_pairs in
      let* body = Option.bind (field "body" j) (dec_opt Option.some) in
      let req =
        {
          Cm_http.Request.meth;
          path;
          query;
          headers = Cm_http.Headers.of_list headers;
          body;
        }
      in
      Some (Request { seq; rid; req })
  | "pre" ->
      let* pi_pre_verdict = Option.bind (field "pre" j) dec_verdict in
      let* pi_auth = Option.bind (field "auth" j) (dec_opt dec_tri) in
      let* pi_functional = Option.bind (field "fn" j) dec_tri in
      let* pi_covered = Option.bind (field "cov" j) dec_strings in
      let* pi_snapshot = Option.bind (field "snap" j) (dec_opt dec_snapshot) in
      Some
        (Pre
           {
             seq;
             image =
               {
                 Cm_monitor.Monitor.pi_pre_verdict;
                 pi_auth;
                 pi_functional;
                 pi_covered;
                 pi_snapshot;
               };
           })
  | "ver" ->
      let* v_rid = str "rid" j in
      let* v_meth = str "meth" j in
      let* v_path = str "path" j in
      let* v_status = int_f "status" j in
      let* v_conformance = str "conf" j in
      let* v_detail = str "detail" j in
      let* v_covered = Option.bind (field "cov" j) dec_strings in
      let* v_body = Option.bind (field "body" j) (dec_opt Option.some) in
      Some
        (Verdict
           {
             v_seq = seq;
             v_rid;
             v_meth;
             v_path;
             v_status;
             v_conformance;
             v_detail;
             v_covered;
             v_body;
           })
  | "mark" ->
      let* note = str "note" j in
      Some (Mark { seq; note })
  | _ -> None

(* The header must agree with the body it announces: a frame that
   recovery classified by its header decodes to that same event or not
   at all. *)
let decode_at s ~off ~len =
  match header s ~off ~len with
  | None -> None
  | Some (kind', seq', rid', body) -> (
      match Cm_json.Parser.parse_sub s ~off:body ~len:(off + len - body) with
      | Error _ -> None
      | Ok j -> (
          match try decode_json j with _ -> None with
          | Some ev
            when kind ev = kind'
                 && seq ev = seq'
                 && String.equal (header_rid ev) rid'
            ->
              Some ev
          | Some _ | None -> None))

let decode payload = decode_at payload ~off:0 ~len:(String.length payload)

let verdict_line v =
  Printf.sprintf "%d %s %s %s %d %s %s [%s] %s" v.v_seq v.v_rid v.v_meth
    v.v_path v.v_status v.v_conformance v.v_detail
    (String.concat "," v.v_covered)
    (match v.v_body with
    | None -> "-"
    | Some body -> Cm_json.Printer.to_string (J.sort_keys body))

let pp ppf ev =
  match ev with
  | Request { seq; rid; req } ->
      Format.fprintf ppf "#%d req %s %s %s" seq rid
        (Cm_http.Meth.to_string req.Cm_http.Request.meth)
        req.Cm_http.Request.path
  | Pre { seq; _ } -> Format.fprintf ppf "#%d pre" seq
  | Verdict v -> Format.fprintf ppf "#%d verdict %s" v.v_seq v.v_conformance
  | Mark { seq; note } -> Format.fprintf ppf "#%d mark %s" seq note
