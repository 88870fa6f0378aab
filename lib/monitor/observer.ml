module Json = Cm_json.Json
module Request = Cm_http.Request
module Response = Cm_http.Response
module RM = Cm_uml.Resource_model
module Footprint = Cm_ocl.Footprint

type backend = Request.t -> Response.t

type t = {
  backend : backend;
  token : string;
  model : RM.t;
  project_id : string;
  entries : Cm_uml.Paths.entry list;
  entry_index : Cm_uml.Paths.index;
  context_def : string;  (* the item contained in the root collection *)
  context_param : string;  (* its id parameter name, e.g. "project_id" *)
  footprint : Footprint.t option;
      (* None = observe everything; Some fp = fetch only what fp reads *)
  cache : Obs_cache.t option;
  timer : ((unit -> Json.t option) -> Json.t option) option;
      (* wraps every observation GET thunk — the monitor's phase timer *)
  lc_names : (string, string) Hashtbl.t;
      (* interned lowercased resource names — root binding keys are
         produced on every observation, so don't re-derive the string
         each time (shared across [with_project] copies; each monitor
         shard owns its observer, so single-threaded) *)
}

let of_entries ~backend ~token ~model ~project_id entries =
  let context_def =
    match RM.outgoing model.RM.root model with
    | child :: _ -> child.RM.target
    | [] -> "project"
  in
  { backend;
    token;
    model;
    project_id;
    entries;
    entry_index = Cm_uml.Paths.index entries;
    context_def;
    context_param = Cm_uml.Paths.id_param context_def;
    footprint = None;
    cache = None;
    timer = None;
    lc_names = Hashtbl.create 16
  }

let create ~backend ~token ~model ~project_id =
  match Cm_uml.Paths.derive model with
  | Ok entries -> Ok (of_entries ~backend ~token ~model ~project_id entries)
  | Error msg ->
    (* A model whose URI scheme cannot be derived would otherwise yield a
       monitor that observes nothing and vacuously passes everything. *)
    Error (Printf.sprintf "observer: cannot derive URI scheme: %s" msg)

let create_exn ~backend ~token ~model ~project_id =
  match create ~backend ~token ~model ~project_id with
  | Ok t -> t
  | Error msg -> invalid_arg msg

let lc t s =
  match Hashtbl.find_opt t.lc_names s with
  | Some v -> v
  | None ->
    let v = String.lowercase_ascii s in
    Hashtbl.add t.lc_names s v;
    v

let with_project t ~project_id = { t with project_id }
let with_token t ~token = { t with token }
let with_footprint t footprint = { t with footprint }
let with_cache t cache = { t with cache }
let with_timer t timer = { t with timer = Some timer }
let project_id t = t.project_id

(* ---- footprint pruning ----------------------------------------------- *)

let wants_root t name =
  match t.footprint with
  | None -> true
  | Some fp -> Footprint.mentions fp (lc t name)

let wants_member t root field =
  match t.footprint with
  | None -> true
  | Some fp -> Footprint.needs_field fp ~root:(lc t root) field

(* The context document's own attributes vs. the members we graft from
   child listings: if the contracts only read grafted roles, the doc GET
   itself is dead weight. *)
let wants_own_attrs t root ~grafted_roles =
  match t.footprint with
  | None -> true
  | Some fp ->
    let root = lc t root in
    (match List.assoc_opt root fp with
     | None -> false
     | Some Footprint.All -> true
     | Some (Footprint.Fields fs) ->
       List.exists (fun f -> not (List.mem f grafted_roles)) fs)

(* ---- cached GETs ------------------------------------------------------ *)

let backend_get ?(subject_token = None) t path =
  let req =
    Request.make Cm_http.Meth.GET path |> Request.with_auth_token t.token
  in
  let req =
    match subject_token with
    | None -> req
    | Some token ->
      { req with
        Request.headers =
          Cm_http.Headers.replace "X-Subject-Token" token req.Request.headers
      }
  in
  t.backend req

(* [fresh] bypasses cache reads but still refreshes the entry: the
   stability re-observation must see the cloud, not the cache, or
   concurrent interference would be masked. *)
let get ?(fresh = false) ?(subject_token = None) t path =
  match t.cache with
  | Some cache when Obs_cache.enabled cache ->
    let cached =
      if fresh then None else Obs_cache.find cache ~token:subject_token path
    in
    (match cached with
     | Some resp -> resp
     | None ->
       let resp = backend_get ~subject_token t path in
       Obs_cache.remember cache ~token:subject_token path resp;
       resp)
  | _ -> backend_get ~subject_token t path

let successful_body resp =
  if Response.is_success resp then resp.Response.body else None

(* API bodies wrap the payload in a single-key envelope; the key's
   spelling varies (volume / quota_set / ...), so unwrap positionally. *)
let unwrap = function
  | Some (Json.Obj [ (_, payload) ]) -> Some payload
  | Some _ | None -> None

let template_for t ~resource ~item =
  Cm_uml.Paths.find t.entry_index ~resource ~item
  |> Option.map (fun (e : Cm_uml.Paths.entry) -> e.template)

let expand t template bindings =
  match
    Cm_http.Uri_template.expand template
      ((t.context_param, t.project_id) :: bindings)
  with
  | Ok path -> Some path
  | Error _ -> None

(* A server-side or transport failure (5xx: the cloud's, or the
   resilience layer's answer once its retries are spent) means the state
   could not be observed — unlike a 404, it says nothing about whether
   the resource exists, so it must not read as an absent one. *)
let unobservable path (resp : Response.t) =
  raise
    (Cm_ocl.Compile.Unobservable
       (Printf.sprintf "GET %s answered %d" path resp.Response.status))

let observed_body path resp =
  if resp.Response.status >= 500 then unobservable path resp
  else successful_body resp

let get_unwrapped ?fresh t ~resource ~item bindings =
  match template_for t ~resource ~item with
  | None -> None
  | Some template ->
    (match expand t template bindings with
     | None -> None
     | Some path -> unwrap (observed_body path (get ?fresh t path)))

let privilege = function "admin" -> 0 | "member" -> 1 | "user" -> 2 | _ -> 3

let introspection_path = "/identity/v3/auth/tokens"

let parse_subject_body body =
  let get_str field =
    match Cm_json.Pointer.get [ Key "token"; Key field ] body with
    | Some (Json.String s) -> Some s
    | Some _ | None -> None
  in
  let get_list field =
    match Cm_json.Pointer.get [ Key "token"; Key field ] body with
    | Some (Json.List items) -> items
    | Some _ | None -> []
  in
  let roles =
    List.filter_map
      (function Json.String s -> Some s | _ -> None)
      (get_list "roles")
  in
  let primary =
    match
      List.sort (fun a b -> Int.compare (privilege a) (privilege b)) roles
    with
    | strongest :: _ -> strongest
    | [] -> ""
  in
  Some
    (Json.obj
       [ ("name", Json.string (Option.value ~default:"" (get_str "user")));
         ("groups", Json.List (get_list "groups"));
         ("roles", Json.List (get_list "roles"));
         ("role", Json.string primary);
         ("id", Json.obj [ ("groups", Json.string primary) ])
       ])

let subject_binding backend ~token =
  let req =
    Request.make Cm_http.Meth.GET introspection_path
    |> fun r ->
    { r with
      Request.headers =
        Cm_http.Headers.replace "X-Subject-Token" token r.Request.headers
    }
  in
  match successful_body (backend req) with
  | None -> None
  | Some body -> parse_subject_body body

(* A token identity definitely does not know (revoked or never issued)
   binds an empty subject: groups/roles are [], so auth guards evaluate
   to a definite False rather than Unknown.  Transport-level failures
   stay [None] (Unknown) — we could not observe, so we must not judge. *)
let empty_subject =
  Json.obj
    [ ("name", Json.string "");
      ("groups", Json.List []);
      ("roles", Json.List []);
      ("role", Json.string "");
      ("id", Json.obj [ ("groups", Json.string "") ])
    ]

(* Token introspections are cached under the subject token.  Revocations
   flow through the monitored API as DELETEs on the introspection path,
   whose mutation invalidation clears the cached introspection. *)
let subject_binding_cached ?(fresh = false) t ~token =
  let resp = get ~fresh ~subject_token:(Some token) t introspection_path in
  if Response.is_success resp then
    Option.bind resp.Response.body parse_subject_body
  else if resp.Response.status = Cm_http.Status.not_found then
    Some empty_subject
  else if resp.Response.status >= 500 then
    unobservable introspection_path resp
  else None

(* ---- lazy observation ------------------------------------------------

   Every GET of an observation is a memoised thunk that runs on first
   force: the context document, each grafted listing, each singleton
   child, each addressed or ancestor item, and the subject
   introspection.  Which thunks exist is decided up front from the
   footprint and the request's URI parameters, without any GET; which
   of them run is decided by what the contract evaluation reads. *)

type state = Pending | Fetched of Json.t option | Failed of string
type doc = { mutable state : state; fetch : unit -> Json.t option }

let doc t fetch =
  { state = Pending;
    fetch = (match t.timer with None -> fetch | Some tm -> fun () -> tm fetch)
  }

let known v = { state = Fetched v; fetch = (fun () -> v) }

(* A failed GET stays failed for the rest of the observation: every
   read of it is unobservable, never a second attempt that might
   disagree with the first. *)
let force d =
  match d.state with
  | Fetched v -> v
  | Failed what -> raise (Cm_ocl.Compile.Unobservable what)
  | Pending ->
    (match d.fetch () with
     | v ->
       d.state <- Fetched v;
       v
     | exception (Cm_ocl.Compile.Unobservable what as failure) ->
       d.state <- Failed what;
       raise failure)

(* A root binding: its own document plus the listings grafted into it
   as members named by their role — this is what makes
   [volume.snapshots->size()] evaluable.  A grafted listing shadows an
   own attribute of the same name.  The context root is bound even when
   its own document is absent (with the members that could be
   observed); any other root is bound only when its document is, and its
   listings are grafted only into an object document. *)
type root = {
  name : string;
  own : doc;
  grafts : (string * doc) list;
  context : bool;
}

let listing_doc ?fresh t ~resource bindings =
  doc t (fun () ->
      match get_unwrapped ?fresh t ~resource ~item:false bindings with
      | Some (Json.List _ as items) -> Some items
      | Some _ | None -> None)

(* The collection roles reachable from a definition, with the resource
   each role lists. *)
let listing_roles t def_name =
  List.filter_map
    (fun (assoc : RM.association) ->
      if assoc.source <> def_name then None
      else
        match RM.find_resource assoc.target t.model with
        | None -> None
        | Some target_def ->
          (match target_def.kind with
           | RM.Collection -> Some (assoc.role, target_def.def_name)
           | RM.Normal
             when Cm_uml.Multiplicity.is_collection assoc.multiplicity ->
             Some (assoc.role, target_def.def_name)
           | RM.Normal -> None))
    t.model.RM.associations

let item_root ?fresh t request_bindings resource =
  { name = lc t resource;
    own =
      doc t (fun () ->
          get_unwrapped ?fresh t ~resource ~item:true request_bindings);
    grafts =
      List.filter_map
        (fun (role, listed) ->
          if wants_member t resource role then
            Some (role, listing_doc ?fresh t ~resource:listed request_bindings)
          else None)
        (listing_roles t resource);
    context = false
  }

let fetched_grafts r =
  List.filter_map
    (fun (role, d) -> Option.map (fun items -> (role, items)) (force d))
    r.grafts

(* The root's whole value: every GET behind it, in fetch order — the
   own document's members, then the listings.  An own attribute a
   fetched listing shadows is left out, so the value navigates exactly
   as [member_value] reads. *)
let root_value r =
  match force r.own with
  | Some (Json.Obj members) ->
    let grafts = fetched_grafts r in
    let own =
      List.filter (fun (name, _) -> not (List.mem_assoc name grafts)) members
    in
    Some (Json.Obj (own @ grafts))
  | Some other when not r.context -> Some other
  | Some _ | None ->
    if r.context then Some (Json.Obj (fetched_grafts r)) else None

(* [root.field] from only the GETs that field needs: a grafted role
   reads its listing (and the own document only if the listing is
   absent); any other member reads the own document alone. *)
let member_value r field =
  let own_member () =
    match force r.own with
    | Some (Json.Obj _ as obj) -> Cm_ocl.Prim.navigate (Cm_ocl.Value.Json obj) field
    | Some other when not r.context ->
      Cm_ocl.Prim.navigate (Cm_ocl.Value.Json other) field
    | Some _ | None -> Cm_ocl.Value.Undef
  in
  match List.assoc_opt field r.grafts with
  | None -> own_member ()
  | Some listing ->
    let present =
      r.context
      || (match force r.own with Some (Json.Obj _) -> true | Some _ | None -> false)
    in
    if not present then own_member ()
    else
      match force listing with
      | Some items -> Cm_ocl.Value.Json items
      | None -> own_member ()

let is_bound r =
  r.context || (match force r.own with Some _ -> true | None -> false)

(* The roots of one observation, in binding order: the context, its
   singleton children, every item reachable with the request's URI
   parameters (the addressed item and its ancestors), the explicitly
   requested item, the subject, the request body.  A name bound twice
   resolves to its first bound root, exactly as an environment lookup
   would. *)
let roots ?(fresh = false) ?item ?(bindings = []) ?user_token ?request_body t =
  let children = RM.outgoing t.context_def t.model in
  let roles = listing_roles t t.context_def in
  let context =
    { name = lc t t.context_def;
      own =
        (if not (wants_own_attrs t t.context_def ~grafted_roles:(List.map fst roles))
         then known None
         else
           doc t (fun () ->
               match
                 get_unwrapped ~fresh t ~resource:t.context_def ~item:true []
               with
               | Some (Json.Obj _ as d) -> Some d
               | Some _ | None -> None));
      grafts =
        List.filter_map
          (fun (assoc : RM.association) ->
            match List.assoc_opt assoc.role roles with
            | Some listed when wants_member t t.context_def assoc.role ->
              Some (assoc.role, listing_doc ~fresh t ~resource:listed [])
            | Some _ | None -> None)
          children;
      context = true
    }
  in
  let singletons =
    List.filter_map
      (fun (assoc : RM.association) ->
        if List.mem_assoc assoc.role roles then None
        else
          match RM.find_resource assoc.target t.model with
          | Some target_def when wants_root t target_def.def_name ->
            Some
              { name = lc t target_def.def_name;
                own =
                  doc t (fun () ->
                      get_unwrapped ~fresh t ~resource:target_def.def_name
                        ~item:true []);
                grafts = [];
                context = false
              }
          | Some _ | None -> None)
      children
  in
  let available = (t.context_param, t.project_id) :: bindings in
  let nested =
    List.filter_map
      (fun (entry : Cm_uml.Paths.entry) ->
        if (not entry.is_item) || entry.resource = t.context_def then None
        else if not (wants_root t entry.resource) then None
        else
          let params = Cm_http.Uri_template.param_names entry.template in
          (* single-param items (the context's singleton children) are
             already bound by the context walk; ancestors proper need at
             least one id from the request *)
          if
            List.length params >= 2
            && List.for_all (fun p -> List.mem_assoc p available) params
          then Some (item_root ~fresh t bindings entry.resource)
          else None)
      t.entries
  in
  let explicit =
    match item with
    | Some (resource, id) when wants_root t resource ->
      let id_param = Cm_uml.Paths.id_param resource in
      [ item_root ~fresh t ((id_param, id) :: bindings) resource ]
    | Some _ | None -> []
  in
  let user =
    match user_token with
    | Some token when wants_root t "user" ->
      [ { name = "user";
          own = doc t (fun () -> subject_binding_cached ~fresh t ~token);
          grafts = [];
          context = false
        }
      ]
    | Some _ | None -> []
  in
  (* The request body is evidence the monitor already holds — no
     observation needed; contracts navigate it as [request.<field>]. *)
  let request =
    match request_body with
    | Some body when wants_root t "request" ->
      [ { name = "request"; own = known (Some body); grafts = []; context = false } ]
    | Some _ | None -> []
  in
  (context :: singletons) @ nested @ explicit @ user @ request

let rec bound_root name = function
  | [] -> None
  | r :: rest ->
    if String.equal r.name name && is_bound r then Some r
    else bound_root name rest

(* Every GET of the observation, in binding order; a root whose name an
   earlier root already binds is never fetched. *)
let materialize roots =
  List.fold_left
    (fun acc r ->
      if List.mem_assoc r.name acc then acc
      else match root_value r with Some v -> (r.name, v) :: acc | None -> acc)
    [] roots
  |> List.rev

let source ?fresh ?item ?bindings ?user_token ?request_body t =
  let roots = roots ?fresh ?item ?bindings ?user_token ?request_body t in
  let env = lazy (Cm_ocl.Eval.env_of_bindings (materialize roots)) in
  { Cm_ocl.Compile.root =
      (fun name ->
        match bound_root name roots with
        | None -> Cm_ocl.Value.Undef
        | Some r ->
          (match root_value r with
           | Some v -> Cm_ocl.Value.Json v
           | None -> Cm_ocl.Value.Undef));
    member =
      (fun name field ->
        match bound_root name roots with
        | None -> Cm_ocl.Value.Undef
        | Some r -> member_value r field);
    materialize = (fun () -> Lazy.force env)
  }

(* The GETs behind reading [fields] of a root, by name: the root's own
   document and, per grafted role read, its listing.  A listing of the
   context is fetched on its own; a listing of any other root only once
   that root's document is known.  The request body costs nothing.  The
   addressed roots are the items bound from the request's URI
   parameters: every item entry the context walk does not bind (it
   needs an id beyond the project's). *)
let cost_model t =
  let context = lc t t.context_def in
  let roles = Hashtbl.create 16 in
  List.iter
    (fun (d : RM.resource_def) ->
      let name = lc t d.def_name in
      if not (Hashtbl.mem roles name) then
        Hashtbl.add roles name (List.map fst (listing_roles t d.def_name)))
    t.model.RM.resources;
  let units root fields =
    match Hashtbl.find_opt roles root with
    | None -> if root = "request" then [] else [ root ]
    | Some roles ->
      let listing role =
        if root = context then [ root ^ "." ^ role ]
        else [ root; root ^ "." ^ role ]
      in
      (match fields with
       | Cm_ocl.Footprint.All -> root :: List.concat_map listing roles
       | Cm_ocl.Footprint.Fields fs ->
         List.concat_map
           (fun f -> if List.mem f roles then listing f else [ root ])
           fs)
      |> List.sort_uniq String.compare
  in
  let items =
    List.filter_map
      (fun (entry : Cm_uml.Paths.entry) ->
        if
          entry.is_item && entry.resource <> t.context_def
          && List.length (Cm_http.Uri_template.param_names entry.template) >= 2
        then Some (lc t entry.resource)
        else None)
      t.entries
  in
  { Cm_contracts.Runtime.units; addressed = (fun root -> List.mem root items) }

let observe ?fresh ?item ?bindings t = materialize (roots ?fresh ?item ?bindings t)

let env ?fresh ?item ?bindings ?user_token ?request_body t =
  (source ?fresh ?item ?bindings ?user_token ?request_body t).materialize ()
