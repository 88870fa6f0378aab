(* Static read-set analysis: what a contract can observe is what the
   observer must fetch — nothing more.  The pruning in the observer is
   only sound if these footprints over-approximate every read, so the
   cases below pin the refinement rules (first-level navigation), the
   widening rules (bare roots, iteration sources used whole), binder
   shadowing, and the footprint of a real generated contract. *)

module Footprint = Cm_ocl.Footprint
module P = Cm_ocl.Ocl_parser

let parse = P.parse_exn

let fp_of s = Footprint.of_expr (parse s)

let fields_to_string = function
  | Footprint.All -> "*"
  | Footprint.Fields fs -> "{" ^ String.concat "," fs ^ "}"

let fp_to_string fp =
  String.concat "; "
    (List.map (fun (root, fs) -> root ^ ":" ^ fields_to_string fs) fp)

let check_fp msg expected expr =
  Alcotest.(check string) msg expected (fp_to_string (fp_of expr))

let test_navigation () =
  check_fp "single navigation" "project:{volumes}" "project.volumes->size() = 0";
  check_fp "two roots"
    "project:{volumes}; quota_sets:{volumes}"
    "project.volumes->size() <= quota_sets.volumes";
  check_fp "same root, merged fields"
    "project:{id,volumes}"
    "project.id->size() = 1 and project.volumes->size() = 0"

let test_bare_root_is_all () =
  check_fp "bare variable reads everything" "volume:*" "volume = null";
  check_fp "comparison of whole roots" "a:*; b:*" "a = b";
  (* deep navigation starts from a nav, not a var: the root is still
     recorded through the inner walk *)
  check_fp "deep navigation keeps first level" "user:{id}"
    "user.id.groups->size() = 1"

let test_pre_state () =
  check_fp "pre reads the same footprint" "project:{volumes}"
    "pre(project.volumes->size()) = project.volumes->size()"

let test_iterator_shadowing () =
  check_fp "binder is not a root" "project:{volumes}"
    "project.volumes->forAll(v | v.size > 0)";
  check_fp "body can read other roots"
    "project:{volumes}; volume:{id}"
    "project.volumes->exists(v | v.id = volume.id)";
  (* a root with the binder's name outside the body is still free *)
  check_fp "shadowing is scoped to the body"
    "project:{volumes}; v:{size}"
    "project.volumes->forAll(v | v.size > 0) and v.size = 1"

(* pre() and iterators compose in both orders; the footprint must be
   identical either way, because the observer snapshots whole documents,
   not expression values. *)
let test_pre_under_nested_iterators () =
  check_fp "pre() around a nested quantification"
    "project:{volumes}"
    "pre(project.volumes->forAll(v | v.size > 0)) = \
     project.volumes->forAll(v | v.size > 0)";
  check_fp "pre() buried inside the inner body"
    "project:{volumes}; quota_sets:{volumes}"
    "project.volumes->forAll(v | quota_sets.volumes->exists(q | pre(q) = \
     v.size))";
  (* the binder of the outer iterator shadows inside pre() too: [v] is
     not a free root even when the pre() call wraps its whole body *)
  check_fp "binder stays bound under pre()"
    "project:{volumes}"
    "project.volumes->forAll(v | pre(v.size) = v.size)"

let test_shadowing_across_chains () =
  (* collect feeds select: the binder name is reused at both levels,
     and neither occurrence escapes as a free root *)
  check_fp "reused binder across collect/select"
    "project:{volumes}"
    "project.volumes->collect(v | v.size)->select(v | v > 1)->size() = 1";
  (* an inner iterator over a different source: both sources read,
     neither binder free *)
  check_fp "nested iterators over distinct sources"
    "project:{volumes}; quota_sets:{volumes}"
    "project.volumes->select(v | quota_sets.volumes->exists(q | q = \
     v.size))->size() = 0";
  (* same binder name inside and outside: only the free occurrence
     contributes, with its own navigated field *)
  check_fp "free occurrence survives a chained shadow"
    "project:{volumes}; v:{status}"
    "project.volumes->collect(v | v.size)->size() = 1 and v.status = \
     'in-use'"

(* is_total and needs_field must agree: a total root needs every field,
   and a root needing every named field we can probe is not thereby
   total (Fields is finite, All is not). *)
let test_is_total_needs_field_agreement () =
  let total = fp_of "volume = null" in
  let partial = fp_of "volume.id->size() = 1 and volume.status = 'in-use'" in
  Alcotest.(check bool) "total root is_total" true
    (Footprint.is_total total "volume");
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "total root needs %s" f)
        true
        (Footprint.needs_field total ~root:"volume" f))
    [ "id"; "status"; "size"; "anything" ];
  Alcotest.(check bool) "field root is not total" false
    (Footprint.is_total partial "volume");
  Alcotest.(check bool) "field root needs listed field" true
    (Footprint.needs_field partial ~root:"volume" "id");
  Alcotest.(check bool) "field root rejects unlisted field" false
    (Footprint.needs_field partial ~root:"volume" "size");
  (* union with a total occurrence flips both views at once *)
  let widened = Footprint.union partial total in
  Alcotest.(check bool) "union is total" true
    (Footprint.is_total widened "volume");
  Alcotest.(check bool) "union needs unlisted field" true
    (Footprint.needs_field widened ~root:"volume" "size");
  (* absent root: not total, needs nothing — both sides agree *)
  Alcotest.(check bool) "absent root not total" false
    (Footprint.is_total partial "server");
  Alcotest.(check bool) "absent root needs nothing" false
    (Footprint.needs_field partial ~root:"server" "id")

let test_queries () =
  let fp = fp_of "project.volumes->size() <= quota_sets.volumes" in
  Alcotest.(check bool) "mentions project" true (Footprint.mentions fp "project");
  Alcotest.(check bool) "does not mention usergroups" false
    (Footprint.mentions fp "usergroups");
  Alcotest.(check bool) "needs project.volumes" true
    (Footprint.needs_field fp ~root:"project" "volumes");
  Alcotest.(check bool) "does not need project.id" false
    (Footprint.needs_field fp ~root:"project" "id");
  Alcotest.(check bool) "absent root needs nothing" false
    (Footprint.needs_field fp ~root:"usergroups" "name");
  let total = fp_of "volume = null" in
  Alcotest.(check bool) "All root is total" true (Footprint.is_total total "volume");
  Alcotest.(check bool) "All needs any field" true
    (Footprint.needs_field total ~root:"volume" "whatever")

let test_union () =
  let a = fp_of "project.volumes->size() = 0" in
  let b = fp_of "project = null" in
  Alcotest.(check string) "All absorbs fields" "project:*"
    (fp_to_string (Footprint.union a b));
  Alcotest.(check string) "union with empty is identity"
    (fp_to_string a)
    (fp_to_string (Footprint.union a Footprint.empty))

(* The generated DELETE(volume) contract must read volumes and the
   addressed volume but never the usergroups collection — that is the
   prunable observation the ISSUE's GET reduction comes from. *)
let test_generated_contract_footprint () =
  let security =
    { Cm_contracts.Generate.table = Cm_rbac.Security_table.cinder;
      assignment = Cm_rbac.Security_table.cinder_assignment
    }
  in
  match
    Cm_contracts.Generate.contract_for ~security
      Cm_uml.Cinder_model.behavior
      { Cm_uml.Behavior_model.meth = Cm_http.Meth.DELETE; resource = "volume" }
  with
  | Error msg -> Alcotest.fail msg
  | Ok contract ->
    let prepared = Cm_contracts.Runtime.(prepare ~cost:written_order) contract in
    let fp = Cm_contracts.Runtime.footprint prepared in
    Alcotest.(check bool) "reads project" true (Footprint.mentions fp "project");
    Alcotest.(check bool) "reads the volume" true (Footprint.mentions fp "volume");
    Alcotest.(check bool) "reads the user binding" true
      (Footprint.mentions fp "user");
    Alcotest.(check bool) "never reads usergroups" false
      (Footprint.mentions fp "usergroups")

let () =
  Alcotest.run "cm_footprint"
    [ ( "analysis",
        [ Alcotest.test_case "first-level navigation" `Quick test_navigation;
          Alcotest.test_case "bare roots widen to All" `Quick
            test_bare_root_is_all;
          Alcotest.test_case "pre-state operator" `Quick test_pre_state;
          Alcotest.test_case "iterator binder shadowing" `Quick
            test_iterator_shadowing;
          Alcotest.test_case "pre() under nested iterators" `Quick
            test_pre_under_nested_iterators;
          Alcotest.test_case "shadowing across collect/select chains" `Quick
            test_shadowing_across_chains
        ] );
      ( "queries",
        [ Alcotest.test_case "mentions/needs_field/is_total" `Quick test_queries;
          Alcotest.test_case "is_total vs needs_field agreement" `Quick
            test_is_total_needs_field_agreement;
          Alcotest.test_case "union" `Quick test_union
        ] );
      ( "contracts",
        [ Alcotest.test_case "generated DELETE(volume) read-set" `Quick
            test_generated_contract_footprint
        ] )
    ]
