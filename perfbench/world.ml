(* Worlds and request streams of the three workloads.

   Everything here is a pure function of the workload parameters and the
   seed: clouds hand out ids and tokens from counters, so two worlds
   provisioned the same way hold the same ids and tokens, and a stream
   compiled against one is valid, request for request, against the
   other.  That is what lets the reference, bare-cloud and pool passes
   replay the timed pass's stream on fresh worlds. *)

module Cloud = Cm_cloudsim.Cloud
module Store = Cm_cloudsim.Store
module Identity = Cm_cloudsim.Identity
module Request = Cm_http.Request
module Meth = Cm_http.Meth
module Json = Cm_json.Json
module Workload = Cm_workload.Workload
module Exec = Cm_workload.Exec
module Monitor = Cm_monitor.Monitor
module Obs_cache = Cm_monitor.Obs_cache

type kind = Tenants_read | Churn_journaled | Adversarial_enforce

let kinds =
  [ ("tenants-read", Tenants_read);
    ("churn-journaled", Churn_journaled);
    ("adversarial-enforce", Adversarial_enforce)
  ]

let name_of kind = fst (List.find (fun (_, k) -> k = kind) kinds)

(* Stream sizes.  A pass replays the whole stream once on a fresh world,
   so these fix the length of the history a pass accumulates (outcome
   log, journal, dedup table) independently of [--seconds]. *)
type scale = {
  steps_per_tenant : int;  (* tenants-read: read-heavy steps per tenant *)
  seeds_per_pass : int;  (* dynamic workloads: consecutive mix seeds *)
}

let full = { steps_per_tenant = 512; seeds_per_pass = 32 }
let small = { steps_per_tenant = 24; seeds_per_pass = 2 }

(* tenants-read parameters.  The working-set bound is each tenant's
   volume quota: the cloud refuses creates beyond it, so no listing ever
   returns more than [working_set] volumes, however long the run. *)
let tenants = 8
let working_set = 50
let stable_volumes = 44
let victim_volumes = 4
let pool_batch = 256

let security table =
  { Cm_contracts.Generate.table;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let login cloud ~user ~password ~project_id =
  match Cloud.login cloud ~user ~password ~project_id with
  | Ok token -> token
  | Error e -> failwith (Printf.sprintf "login %s failed: %s" user e)

(* ---- tenants-read: 8 tenants, static read-heavy streams ------------- *)

type tenant = {
  project : string;
  service : string;  (* the monitor's project-scoped credential *)
  admin : string;
  member : string;
  stable : string list;
  victims : string list;
}

type read_world = { r_cloud : Cloud.t; r_tenants : tenant array }

let created_id resp =
  match resp.Cm_http.Response.body with
  | None -> None
  | Some body ->
    (match Cm_json.Pointer.get [ Key "volume"; Key "id" ] body with
     | Some (Json.String id) -> Some id
     | Some _ | None -> None)

let provision_read () =
  let cloud = Cloud.create () in
  let identity = Cloud.identity cloud in
  let tenant i =
    let project = Printf.sprintf "tenant-%02d" i in
    ignore
      (Store.add_project (Cloud.store cloud) ~id:project ~name:project
         ~quota_volumes:working_set ~quota_gigabytes:1_000_000 ());
    Identity.set_assignment identity ~project_id:project
      Cm_rbac.Security_table.cinder_assignment;
    let user role group =
      let name = Printf.sprintf "%s-%d" role i in
      Identity.add_user identity ~password:"pw"
        (Cm_rbac.Subject.make name [ group ]);
      login cloud ~user:name ~password:"pw" ~project_id:project
    in
    let service = user "svc" "proj_administrator" in
    let admin = user "admin" "proj_administrator" in
    let member = user "member" "service_architect" in
    let create name =
      let body =
        Json.obj
          [ ( "volume",
              Json.obj [ ("name", Json.string name); ("size", Json.int 1) ] )
          ]
      in
      let resp =
        Cloud.handle cloud
          (Request.make ~body Meth.POST
             (Printf.sprintf "/v3/%s/volumes" project)
          |> Request.with_auth_token member)
      in
      match created_id resp with
      | Some id -> id
      | None -> failwith "provisioning: volume creation failed"
    in
    let stable =
      List.init stable_volumes (fun v -> create (Printf.sprintf "base-%d" v))
    in
    let victims =
      List.init victim_volumes (fun v -> create (Printf.sprintf "victim-%d" v))
    in
    { project; service; admin; member; stable; victims }
  in
  { r_cloud = cloud; r_tenants = Array.init tenants tenant }

let read_traces scale ~seed =
  Array.init tenants (fun i ->
      Workload.read_heavy_trace ~steps:scale.steps_per_tenant
        ~victims:victim_volumes ~seed:((seed * tenants) + i))

(* Each tenant's trace compiled statically against its own fixtures, then
   interleaved round-robin so every shard gets work. *)
let read_stream world traces =
  let per_tenant =
    Array.mapi
      (fun i trace ->
        let tn = world.r_tenants.(i) in
        let st =
          { Exec.st_project = tn.project;
            st_token =
              (function
              | Workload.Admin -> tn.admin
              | Workload.Member | Workload.User -> tn.member);
            st_stable_volumes = tn.stable;
            st_victim_volumes = tn.victims
          }
        in
        Array.of_list (Exec.requests st trace))
      traces
  in
  let longest = Array.fold_left (fun m a -> max m (Array.length a)) 0 per_tenant in
  List.concat
    (List.init longest (fun step ->
         Array.to_list per_tenant
         |> List.filter_map (fun reqs ->
                if step < Array.length reqs then Some reqs.(step) else None)))
  |> Array.of_list

let read_config ?(timings = false) ~cache world =
  let table =
    Array.to_list world.r_tenants |> List.map (fun t -> (t.project, t.service))
  in
  Monitor.default_config ~cache ~timings
    ~service_token:world.r_tenants.(0).service
    ~service_token_for:(fun p -> List.assoc_opt p table)
    ~security:(security Cm_rbac.Security_table.cinder)
    Cm_uml.Cinder_model.resources Cm_uml.Cinder_model.behavior

let read_service_tokens world =
  Array.to_list world.r_tenants |> List.map (fun t -> t.service)

(* Volumes a tenant holds right now, read from the store (not through
   the monitor) — the working-set check. *)
let volume_counts world =
  Array.map
    (fun t ->
      match Store.find_project (Cloud.store world.r_cloud) t.project with
      | Some p -> Store.volume_count p
      | None -> 0)
    world.r_tenants

(* ---- dynamic workloads: the paper's project, cross-service models --- *)

let project = "myProject"

type dyn_world = {
  d_cloud : Cloud.t;
  d_service : string;
  d_tokens : (Workload.role, string) Hashtbl.t;  (* current token per role *)
}

let user_of_role = function
  | Workload.Admin -> ("alice", "alice-pw")
  | Workload.Member -> ("bob", "bob-pw")
  | Workload.User -> ("carol", "carol-pw")

let provision_dynamic () =
  let cloud = Cloud.create () in
  Cloud.seed cloud Cloud.my_project;
  Identity.add_user (Cloud.identity cloud) ~password:"svc-pw"
    (Cm_rbac.Subject.make "monitor-svc" [ "proj_administrator" ]);
  let service =
    login cloud ~user:"monitor-svc" ~password:"svc-pw" ~project_id:project
  in
  let tokens = Hashtbl.create 4 in
  List.iter
    (fun role ->
      let user, password = user_of_role role in
      Hashtbl.replace tokens role (login cloud ~user ~password ~project_id:project))
    [ Workload.Admin; Workload.Member; Workload.User ];
  { d_cloud = cloud; d_service = service; d_tokens = tokens }

let dyn_mix = function
  | Churn_journaled -> Workload.churn_heavy
  | Adversarial_enforce -> Workload.adversarial
  | Tenants_read -> invalid_arg "dyn_mix: tenants-read has a static stream"

(* Consecutive seeds, one trace each, all run on one long-lived cloud. *)
let dyn_traces kind scale ~seed =
  let mix = dyn_mix kind in
  Array.init scale.seeds_per_pass (fun k ->
      mix.Workload.compile ~seed:((seed * scale.seeds_per_pass) + k))

let dyn_config ?(timings = false) ?journal_pre ?journal_barrier ~mode ~cache
    world =
  Monitor.default_config ~mode ~cache ~timings ?journal_pre ?journal_barrier
    ~service_token:world.d_service
    ~security:(security Cm_rbac.Security_table.cross)
    Cm_uml.Cross_model.resources Cm_uml.Cross_model.behavior

let mode_of = function
  | Adversarial_enforce -> Monitor.Enforce
  | Churn_journaled | Tenants_read -> Monitor.Oracle

(* The out-of-band steps of a dynamic stream. *)
let relogin world role =
  let user, password = user_of_role role in
  let token = login world.d_cloud ~user ~password ~project_id:project in
  Hashtbl.replace world.d_tokens role token;
  token

(* Tenant churn behind the monitor's back, in a throwaway project. *)
let churn world k =
  let store = Cloud.store world.d_cloud in
  let pid = Printf.sprintf "churn-%d" k in
  let proj =
    match Store.find_project store pid with
    | Some p -> p
    | None ->
      Store.add_project store ~id:pid ~name:pid ~quota_volumes:2
        ~quota_gigabytes:10 ()
  in
  let volume = Store.add_volume store proj ~name:"churn-vol" ~size_gb:1 () in
  ignore (Store.remove_volume proj volume.Store.volume_id)

(* A dynamic stream as recorded: requests in issue order plus the
   out-of-band steps between them.  Replays re-perform the out-of-band
   steps at the same points, so logins hand out the same tokens. *)
type item = Req of Request.t | Relogin of Workload.role | Churn of int

(* The execution environment of a dynamic pass: [handle] is the
   monitored entry point, [on_item] sees every step as it happens. *)
let dyn_env world ~handle ~flush ~on_item =
  { Exec.project;
    stable_volumes = [];
    victim_volumes = [];
    handle =
      (fun req ->
        on_item (Req req);
        handle req);
    token = (fun role -> Hashtbl.find world.d_tokens role);
    relogin =
      Some
        (fun role ->
          on_item (Relogin role);
          Some (relogin world role));
    churn =
      Some
        (fun k ->
          on_item (Churn k);
          churn world k);
    flush
  }

(* Replay a recorded stream: [send] gets each request, out-of-band steps
   are re-performed, and [flush] runs after churn as in a live pass.
   [barrier] runs before every out-of-band step, so a batching caller
   can drain the requests queued so far. *)
let replay world items ~send ~barrier ~flush =
  Array.iter
    (function
      | Req req -> send req
      | Relogin role ->
        barrier ();
        ignore (relogin world role)
      | Churn k ->
        barrier ();
        churn world k;
        flush ())
    items;
  barrier ()

let requests_of items =
  Array.to_list items
  |> List.filter_map (function Req r -> Some r | Relogin _ | Churn _ -> None)
  |> Array.of_list
