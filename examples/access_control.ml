(* Role-based access control with exceptions — a modern workload that maps
   directly onto the paper's model: role and resource hierarchies are
   taxonomies, grants are positive tuples over classes, revocations are
   negated tuples, and the ambiguity constraint catches contradictory
   policy before it ships.

   Run with: dune exec examples/access_control.exe *)

module Hierarchy = Hr_hierarchy.Hierarchy
open Hierel

let () =
  (* role hierarchy: more powerful roles are SUBclasses (an admin is an
     employee, with more specific policy binding more strongly) *)
  let roles = Hierarchy.create "role" in
  ignore (Hierarchy.add_class roles "employee");
  ignore (Hierarchy.add_class roles ~parents:[ "employee" ] "engineer");
  ignore (Hierarchy.add_class roles ~parents:[ "engineer" ] "admin");
  ignore (Hierarchy.add_class roles ~parents:[ "employee" ] "contractor");
  ignore (Hierarchy.add_instance roles ~parents:[ "admin" ] "alice");
  ignore (Hierarchy.add_instance roles ~parents:[ "engineer" ] "bob");
  ignore (Hierarchy.add_instance roles ~parents:[ "contractor"; "engineer" ] "carol");

  (* resource hierarchy *)
  let resources = Hierarchy.create "resource" in
  ignore (Hierarchy.add_class resources "repo");
  ignore (Hierarchy.add_class resources ~parents:[ "repo" ] "prod_config");
  ignore (Hierarchy.add_instance resources ~parents:[ "repo" ] "website");
  ignore (Hierarchy.add_instance resources ~parents:[ "prod_config" ] "payments");

  let schema = Schema.make [ ("role", roles); ("resource", resources) ] in

  (* policy:
     - employees may read every repo
     - contractors may not touch prod config
     - engineers may touch prod config (grant back for the
       contractor+engineer overlap — required, or the policy is ambiguous
       for carol!) *)
  let can_write =
    Relation.of_tuples ~name:"can_write" schema
      [
        (Types.Pos, [ "engineer"; "repo" ]);
        (Types.Neg, [ "contractor"; "prod_config" ]);
      ]
  in
  (match Integrity.check can_write with
  | [] -> print_endline "policy consistent (unexpectedly!)"
  | conflicts ->
    print_endline "ambiguous policy detected before deployment:";
    List.iter
      (fun c -> Format.printf "  %a@." (Integrity.pp_conflict schema) c)
      conflicts);

  (* resolve the carol case explicitly: engineering contractors may write
     prod config *)
  let can_write =
    Relation.add can_write
      (Item.of_names schema [ "carol"; "prod_config" ])
      Types.Pos
  in
  Format.printf "@.resolved policy:@.%a@." Relation.pp can_write;

  let check who what =
    let item = Item.of_names schema [ who; what ] in
    Format.printf "%-6s writes %-10s -> %s@." who what
      (if Binding.holds can_write item then "ALLOW" else "DENY")
  in
  check "alice" "payments";
  check "bob" "payments";
  check "carol" "payments";
  check "carol" "website";

  (* audit: why is carol allowed on payments? *)
  let item = Item.of_names schema [ "carol"; "payments" ] in
  Format.printf "@.audit trail for carol/payments:@.";
  List.iter
    (fun (t : Relation.tuple) ->
      Format.printf "  %a%s@." Types.pp_sign t.Relation.sign
        (Item.to_string schema t.Relation.item))
    (Binding.justification can_write item);

  (* the whole policy is 3 tuples; the equivalent flat ACL would be *)
  Format.printf "@.stored policy tuples: %d; equivalent flat ACL entries: %d@."
    (Relation.cardinality can_write)
    (Aggregate.count can_write)
