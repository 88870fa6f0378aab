module Json = Cm_json.Json
module Request = Cm_http.Request
module Meth = Cm_http.Meth
module Scenario = Cm_mutation.Scenario
module Cloud = Cm_cloudsim.Cloud

type target = Ghost | Nth of int | Last_created

type op =
  | List_volumes
  | Create of string * int
  | Get of target
  | Update of target * string
  | Delete of target
  | Attach of target
  | Detach of target
  | Drain

type step = { user : string; op : op }
type t = step list

let users = [ "alice"; "bob"; "carol" ]

(* ---- generation ---- *)

let gen_target rng =
  match Rng.int rng 6 with
  | 0 -> Ghost
  | 1 | 2 -> Last_created
  | _ -> Nth (Rng.int rng 4)

let gen_step rng =
  let user = Rng.choose rng users in
  let op =
    match Rng.int rng 8 with
    | 0 -> List_volumes
    | 1 | 2 -> Create (Printf.sprintf "w%d" (Rng.int rng 100), 1 + Rng.int rng 20)
    | 3 -> Get (gen_target rng)
    | 4 -> Update (gen_target rng, Printf.sprintf "r%d" (Rng.int rng 100))
    | 5 -> Delete (gen_target rng)
    | 6 -> Attach (gen_target rng)
    | _ -> Detach (gen_target rng)
  in
  { user; op }

let gen_noise : t Gen.t =
  fun rng ~size ->
  let n = Rng.int rng (max 1 size) in
  List.init n (fun _ -> gen_step rng)

let probe_for mutant rng =
  let name prefix = Printf.sprintf "%s%d" prefix (Rng.int rng 100) in
  let size () = 1 + Rng.int rng 5 in
  let create user prefix = { user; op = Create (name prefix, size ()) } in
  match mutant with
  | "M1-delete-privilege-escalation" ->
    [ create "alice" "p"; { user = "bob"; op = Delete Last_created } ]
  | "M2-update-check-missing" ->
    [ create "alice" "p";
      { user = "carol"; op = Update (Last_created, name "h") }
    ]
  | "M3-get-wrongly-denied" ->
    [ create "alice" "p"; { user = "carol"; op = Get Last_created } ]
  | "M4-quota-ignored" ->
    List.init 4 (fun _ -> create "alice" "q")
  | "M5-delete-in-use-allowed" ->
    [ create "alice" "p";
      { user = "alice"; op = Attach Last_created };
      { user = "alice"; op = Delete Last_created }
    ]
  | "M6-wrong-delete-status" | "M8-zombie-delete" ->
    [ create "alice" "p"; { user = "alice"; op = Delete Last_created } ]
  | "M7-phantom-create" -> [ create "alice" "p" ]
  | "M9-create-open-to-all" -> [ create "carol" "p" ]
  | "M10-list-wrongly-denied" -> [ { user = "alice"; op = List_volumes } ]
  | other -> invalid_arg ("Trace_gen.probe_for: unknown mutant " ^ other)

let with_probe ~mutant rng noise =
  noise @ ({ user = "alice"; op = Drain } :: probe_for mutant rng)

(* ---- execution ---- *)

let volumes_path = "/v3/myProject/volumes"
let volume_path id = volumes_path ^ "/" ^ id

(* Listing goes straight to the cloud (not through the monitor) as the
   admin service view: target resolution is scaffolding, not monitored
   traffic. *)
let list_ids ctx =
  let token = List.assoc "alice" ctx.Scenario.tokens in
  let resp =
    Cloud.handle ctx.Scenario.cloud
      (Request.make Meth.GET volumes_path |> Request.with_auth_token token)
  in
  match resp.Cm_http.Response.body with
  | Some body ->
    (match Json.member "volumes" body with
     | Some (Json.List vols) ->
       List.filter_map
         (fun v ->
           match Json.member "id" v with
           | Some (Json.String id) -> Some id
           | _ -> None)
         vols
     | _ -> [])
  | None -> []

let run ?handle ctx trace =
  let last_created = ref None in
  let resolve = function
    | Ghost -> Some "vol-ghost"
    | Last_created -> !last_created
    | Nth i ->
      (match list_ids ctx with
       | [] -> None
       | ids -> Some (List.nth ids (i mod List.length ids)))
  in
  let send ~user meth path ?body () =
    ignore (Scenario.request ?handle ctx ~user meth path ?body ())
  in
  let volume_body name size =
    Json.obj
      [ ( "volume",
          Json.obj [ ("name", Json.string name); ("size", Json.int size) ] )
      ]
  in
  let action_body kind fields = Json.obj [ (kind, Json.obj fields) ] in
  let exec { user; op } =
    match op with
    | List_volumes -> send ~user Meth.GET volumes_path ()
    | Create (name, size) ->
      let outcome =
        Scenario.request ?handle ctx ~user Meth.POST volumes_path
          ~body:(volume_body name size) ()
      in
      (match Scenario.created_volume_id outcome with
       | Some id -> last_created := Some id
       | None -> ())
    | Get target ->
      Option.iter
        (fun id -> send ~user Meth.GET (volume_path id) ())
        (resolve target)
    | Update (target, new_name) ->
      Option.iter
        (fun id ->
          send ~user Meth.PUT (volume_path id)
            ~body:
              (Json.obj
                 [ ("volume", Json.obj [ ("name", Json.string new_name) ]) ])
            ())
        (resolve target)
    | Delete target ->
      Option.iter
        (fun id -> send ~user Meth.DELETE (volume_path id) ())
        (resolve target)
    | Attach target ->
      Option.iter
        (fun id ->
          send ~user Meth.POST
            (volume_path id ^ "/action")
            ~body:
              (action_body "os-attach"
                 [ ("instance_uuid", Json.string "srv-fuzz") ])
            ())
        (resolve target)
    | Detach target ->
      Option.iter
        (fun id ->
          send ~user Meth.POST
            (volume_path id ^ "/action")
            ~body:(action_body "os-detach" [])
            ())
        (resolve target)
    | Drain ->
      List.iter
        (fun id ->
          send ~user Meth.POST
            (volume_path id ^ "/action")
            ~body:(action_body "os-detach" [])
            ();
          send ~user Meth.DELETE (volume_path id) ())
        (list_ids ctx)
  in
  List.iter exec trace;
  Cm_monitor.Monitor.outcomes ctx.Scenario.monitor

(* ---- serialization ---- *)

let target_to_string = function
  | Ghost -> "ghost"
  | Last_created -> "last"
  | Nth i -> "n" ^ string_of_int i

let target_of_string = function
  | "ghost" -> Ok Ghost
  | "last" -> Ok Last_created
  | s when String.length s > 1 && s.[0] = 'n' ->
    (match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
     | Some i -> Ok (Nth i)
     | None -> Error ("bad target " ^ s))
  | s -> Error ("bad target " ^ s)

let step_to_string { user; op } =
  let parts =
    match op with
    | List_volumes -> [ "list" ]
    | Create (name, size) -> [ "create"; name; string_of_int size ]
    | Get t -> [ "get"; target_to_string t ]
    | Update (t, name) -> [ "update"; target_to_string t; name ]
    | Delete t -> [ "delete"; target_to_string t ]
    | Attach t -> [ "attach"; target_to_string t ]
    | Detach t -> [ "detach"; target_to_string t ]
    | Drain -> [ "drain" ]
  in
  String.concat ":" (user :: parts)

let step_of_string text =
  let ( let* ) = Result.bind in
  match String.split_on_char ':' text with
  | user :: rest ->
    let* op =
      match rest with
      | [ "list" ] -> Ok List_volumes
      | [ "create"; name; size ] ->
        (match int_of_string_opt size with
         | Some n -> Ok (Create (name, n))
         | None -> Error ("bad size in " ^ text))
      | [ "get"; t ] -> Result.map (fun t -> Get t) (target_of_string t)
      | [ "update"; t; name ] ->
        Result.map (fun t -> Update (t, name)) (target_of_string t)
      | [ "delete"; t ] -> Result.map (fun t -> Delete t) (target_of_string t)
      | [ "attach"; t ] -> Result.map (fun t -> Attach t) (target_of_string t)
      | [ "detach"; t ] -> Result.map (fun t -> Detach t) (target_of_string t)
      | [ "drain" ] -> Ok Drain
      | _ -> Error ("bad step " ^ text)
    in
    Ok { user; op }
  | [] -> Error "empty step"

let to_string trace = String.concat ";" (List.map step_to_string trace)

let of_string text =
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | piece :: rest ->
      (match step_of_string piece with
       | Ok step -> build (step :: acc) rest
       | Error _ as err -> err)
  in
  if String.trim text = "" then Ok []
  else build [] (String.split_on_char ';' text)
