module Json = Cm_json.Json

(* Shared, preallocated truth values: the hot path returns these instead
   of allocating a fresh [Json (Bool _)] per connective. *)
let v_true = Value.of_bool true
let v_false = Value.of_bool false

let value_of_bool b = if b then v_true else v_false

let value_of_tribool = function
  | Value.True -> v_true
  | Value.False -> v_false
  | Value.Unknown -> Value.Undef

let navigate value prop =
  match value with
  | Value.Undef -> Value.Undef
  | Value.Json (Json.Obj _ as obj) ->
    (match Json.member prop obj with
     | Some v -> Value.Json v
     | None -> Value.Undef)
  | Value.Json (Json.List items) ->
    (* OCL collect shorthand: navigating a collection navigates each
       element, dropping undefined results. *)
    let collected =
      List.filter_map
        (fun item ->
          match item with
          | Json.Obj _ -> Json.member prop item
          | _ -> None)
        items
    in
    Value.Json (Json.List collected)
  | Value.Json _ -> Value.Undef

let numeric = function
  | Value.Json (Json.Int n) -> Some (`Int n)
  | Value.Json (Json.Float f) -> Some (`Float f)
  | _ -> None

let arith op a b =
  match numeric a, numeric b with
  | Some (`Int x), Some (`Int y) ->
    (match op with
     | Ast.Add -> Value.of_int (x + y)
     | Ast.Sub -> Value.of_int (x - y)
     | Ast.Mul -> Value.of_int (x * y)
     | Ast.Div -> if y = 0 then Value.Undef else Value.of_int (x / y)
     | _ -> Value.Undef)
  | Some nx, Some ny ->
    let to_f = function `Int n -> float_of_int n | `Float f -> f in
    let x = to_f nx and y = to_f ny in
    (match op with
     | Ast.Add -> Value.Json (Json.Float (x +. y))
     | Ast.Sub -> Value.Json (Json.Float (x -. y))
     | Ast.Mul -> Value.Json (Json.Float (x *. y))
     | Ast.Div -> if y = 0. then Value.Undef else Value.Json (Json.Float (x /. y))
     | _ -> Value.Undef)
  | _, _ -> Value.Undef

let neg value =
  match numeric value with
  | Some (`Int n) -> Value.of_int (-n)
  | Some (`Float f) -> Value.Json (Json.Float (-.f))
  | None -> Value.Undef

let coll_sum items =
  let rec loop acc_int acc_float all_int = function
    | [] ->
      if all_int then Value.of_int acc_int
      else Value.Json (Json.Float (acc_float +. float_of_int acc_int))
    | Json.Int n :: rest -> loop (acc_int + n) acc_float all_int rest
    | Json.Float f :: rest -> loop acc_int (acc_float +. f) false rest
    | _ :: _ -> Value.Undef
  in
  loop 0 0. true items

(* OCL collection coercion, read in place: a JSON list is its own
   elements, [Undef] the empty collection (an absent resource has no
   elements — this is what makes [project.volumes->size() = 0] express
   "GET on Volumes did not return 200"), and any other value a
   singleton.  The kernels below walk the observed JSON directly; only
   an iterator body, which binds each element as a [Value.t], boxes
   one element at a time. *)
let elements = function
  | Value.Undef -> []
  | Value.Json (Json.List items) -> items
  | Value.Json other -> [ other ]

let coll op value =
  let items = elements value in
  match op with
  | Ast.Size -> Value.of_int (List.length items)
  | Ast.Is_empty -> value_of_bool (items = [])
  | Ast.Not_empty -> value_of_bool (items <> [])
  | Ast.Sum -> coll_sum items
  | Ast.First ->
    (match items with first :: _ -> Value.Json first | [] -> Value.Undef)
  | Ast.Last ->
    (match List.rev items with last :: _ -> Value.Json last | [] -> Value.Undef)
  | Ast.As_set ->
    let rec dedup seen = function
      | [] -> List.rev seen
      | item :: rest ->
        if List.exists (Json.equal item) seen then dedup seen rest
        else dedup (item :: seen) rest
    in
    Value.Json (Json.List (dedup [] items))

let member ~includes value needle =
  match needle with
  | Value.Undef -> Value.Undef
  | Value.Json x ->
    let found = List.exists (Json.equal x) (elements value) in
    value_of_bool (if includes then found else not found)

let count value needle =
  match needle with
  | Value.Undef -> Value.Undef
  | Value.Json x ->
    Value.of_int
      (List.fold_left
         (fun n item -> if Json.equal x item then n + 1 else n)
         0 (elements value))

(* Every OCL expression is total and pure, so [forAll]/[exists] may stop
   at their absorbing element (Kleene [False and _] / [True or _])
   without changing the result. *)
let iter kind value body =
  let items = elements value in
  let body_truth item = Value.truth (body (Value.Json item)) in
  match kind with
  | Ast.For_all ->
    let rec loop acc = function
      | [] -> value_of_tribool acc
      | item :: rest ->
        (match body_truth item with
         | Value.False -> v_false
         | t -> loop (Value.tri_and acc t) rest)
    in
    loop Value.True items
  | Ast.Exists ->
    let rec loop acc = function
      | [] -> value_of_tribool acc
      | item :: rest ->
        (match body_truth item with
         | Value.True -> v_true
         | t -> loop (Value.tri_or acc t) rest)
    in
    loop Value.False items
  | Ast.One ->
    let count_true = ref 0 and unknown = ref false in
    List.iter
      (fun item ->
        match body_truth item with
        | Value.True -> incr count_true
        | Value.False -> ()
        | Value.Unknown -> unknown := true)
      items;
    if !unknown then Value.Undef else value_of_bool (!count_true = 1)
  | Ast.Select | Ast.Reject ->
    let keep_on = if kind = Ast.Select then Value.True else Value.False in
    let rec loop acc = function
      | [] -> Value.Json (Json.List (List.rev acc))
      | item :: rest ->
        (match body_truth item with
         | Value.Unknown -> Value.Undef
         | t -> loop (if t = keep_on then item :: acc else acc) rest)
    in
    loop [] items
  | Ast.Any ->
    let rec find = function
      | [] -> Value.Undef
      | item :: rest ->
        (match body_truth item with
         | Value.True -> Value.Json item
         | Value.False -> find rest
         | Value.Unknown -> Value.Undef)
    in
    find items
  | Ast.Is_unique ->
    let values = List.map (fun item -> body (Value.Json item)) items in
    if List.exists (fun v -> v = Value.Undef) values then Value.Undef
    else begin
      let rec pairwise = function
        | [] -> true
        | v :: rest ->
          List.for_all (fun w -> Value.equal_value v w <> Value.True) rest
          && pairwise rest
      in
      value_of_bool (pairwise values)
    end
  | Ast.Collect ->
    let mapped =
      List.filter_map
        (fun item ->
          match body (Value.Json item) with
          | Value.Json j -> Some j
          | Value.Undef -> None)
        items
    in
    Value.Json (Json.List mapped)

let compare op a b =
  match Value.compare_order a b with
  | None -> Value.Undef
  | Some c ->
    let holds =
      match op with
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0
      | _ -> false
    in
    value_of_bool holds
