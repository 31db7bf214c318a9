(* Regenerates every figure of the paper (Jagadish, SIGMOD 1989) from the
   implementation, printing paper-vs-computed content side by side in
   ASCII. EXPERIMENTS.md records what each section must show.

   Run with: dune exec bin/figures.exe *)

module Hierarchy = Hr_hierarchy.Hierarchy
module Dag = Hr_graph.Dag
open Hierel

let section id title = Format.printf "@.=== %s — %s ===@." id title

(* ---- shared fixtures (duplicated from test/fixtures.ml so the binary is
   self-contained) ---------------------------------------------------- *)

let animals () =
  let h = Hierarchy.create "animal" in
  ignore (Hierarchy.add_class h "bird");
  ignore (Hierarchy.add_class h ~parents:[ "bird" ] "canary");
  ignore (Hierarchy.add_class h ~parents:[ "bird" ] "penguin");
  ignore (Hierarchy.add_class h ~parents:[ "penguin" ] "galapagos_penguin");
  ignore (Hierarchy.add_class h ~parents:[ "penguin" ] "amazing_flying_penguin");
  ignore (Hierarchy.add_instance h ~parents:[ "canary" ] "tweety");
  ignore (Hierarchy.add_instance h ~parents:[ "galapagos_penguin" ] "paul");
  ignore (Hierarchy.add_instance h ~parents:[ "penguin" ] "peter");
  ignore (Hierarchy.add_instance h ~parents:[ "amazing_flying_penguin" ] "pamela");
  ignore
    (Hierarchy.add_instance h
       ~parents:[ "amazing_flying_penguin"; "galapagos_penguin" ]
       "patricia");
  h

let flies h =
  Relation.of_tuples ~name:"flies" (Schema.make [ ("creature", h) ])
    [
      (Types.Pos, [ "bird" ]);
      (Types.Neg, [ "penguin" ]);
      (Types.Pos, [ "amazing_flying_penguin" ]);
      (Types.Pos, [ "peter" ]);
    ]

let students () =
  let h = Hierarchy.create "student" in
  ignore (Hierarchy.add_class h "obsequious_student");
  ignore (Hierarchy.add_instance h ~parents:[ "obsequious_student" ] "john");
  ignore (Hierarchy.add_instance h "mary");
  h

let teachers () =
  let h = Hierarchy.create "teacher" in
  ignore (Hierarchy.add_class h "incoherent_teacher");
  ignore (Hierarchy.add_instance h ~parents:[ "incoherent_teacher" ] "smith");
  ignore (Hierarchy.add_instance h "jones");
  h

let respects hs ht =
  Relation.of_tuples ~name:"respects" (Schema.make [ ("student", hs); ("teacher", ht) ])
    [
      (Types.Pos, [ "obsequious_student"; "teacher" ]);
      (Types.Neg, [ "student"; "incoherent_teacher" ]);
      (Types.Pos, [ "obsequious_student"; "incoherent_teacher" ]);
    ]

let elephants () =
  let h = Hierarchy.create "animal" in
  ignore (Hierarchy.add_class h "elephant");
  ignore (Hierarchy.add_class h ~parents:[ "elephant" ] "african_elephant");
  ignore (Hierarchy.add_class h ~parents:[ "elephant" ] "indian_elephant");
  ignore (Hierarchy.add_class h ~parents:[ "elephant" ] "royal_elephant");
  ignore (Hierarchy.add_instance h ~parents:[ "royal_elephant" ] "clyde");
  ignore (Hierarchy.add_instance h ~parents:[ "royal_elephant"; "indian_elephant" ] "appu");
  h

let colors () =
  let h = Hierarchy.create "color" in
  List.iter (fun c -> ignore (Hierarchy.add_instance h c)) [ "grey"; "white"; "dappled" ];
  h

let animal_color he hc =
  Relation.of_tuples ~name:"animal_color" (Schema.make [ ("animal", he); ("color", hc) ])
    [
      (Types.Pos, [ "elephant"; "grey" ]);
      (Types.Neg, [ "royal_elephant"; "grey" ]);
      (Types.Pos, [ "royal_elephant"; "white" ]);
      (Types.Neg, [ "clyde"; "white" ]);
      (Types.Pos, [ "clyde"; "dappled" ]);
    ]

(* ---- figures -------------------------------------------------------- *)

let fig1 () =
  section "Figure 1a" "the animal class hierarchy";
  let h = animals () in
  Format.printf "%a" Hierarchy.pp h;
  section "Figure 1b" "the hierarchical Flies relation";
  let r = flies h in
  Format.printf "%a" Relation.pp r;
  section "Figure 1c" "the subsumption graph of Flies";
  Format.printf "%a" Subsumption.pp r;
  section "Figure 1d" "the tuple-binding graph of Patricia";
  let schema = Relation.schema r in
  let patricia = Item.of_names schema [ "patricia" ] in
  let g = Binding.binding_graph r patricia in
  List.iter
    (fun (i, j) ->
      let label k =
        if k = g.Binding.item_node then "(patricia)"
        else
          let t = g.Binding.nodes.(k) in
          Format.asprintf "%a%s" Types.pp_sign t.Relation.sign
            (Item.to_string schema t.Relation.item)
      in
      Format.printf "%s -> %s@." (label i) (label j))
    g.Binding.edges;
  Format.printf "verdicts: ";
  List.iter
    (fun name ->
      Format.printf "%s:%s " name
        (if Binding.holds r (Item.of_names schema [ name ]) then "flies" else "grounded"))
    [ "tweety"; "paul"; "peter"; "pamela"; "patricia" ];
  Format.printf "@."

let fig2 () =
  section "Figure 2" "student and teacher hierarchies and their product";
  let hs = students () and ht = teachers () in
  Format.printf "(a) students:@.%a(b) teachers:@.%a" Hierarchy.pp hs Hierarchy.pp ht;
  Format.printf "(c) product nodes (classes only):@.";
  List.iter
    (fun s ->
      List.iter
        (fun t ->
          Format.printf "  (%s, %s)@." (Hierarchy.node_label hs s) (Hierarchy.node_label ht t))
        (Hierarchy.classes ht))
    (Hierarchy.classes hs)

let fig3 () =
  section "Figure 3" "the Respects relation (with its conflict-resolving third tuple)";
  let r = respects (students ()) (teachers ()) in
  Format.printf "%a" Relation.pp r;
  Format.printf "ambiguity constraint satisfied: %b@." (Integrity.is_consistent r)

let fig4 () =
  section "Figure 4" "the elephant hierarchy and the Animal-Color relation";
  let he = elephants () and hc = colors () in
  Format.printf "%a" Hierarchy.pp he;
  let r = animal_color he hc in
  Format.printf "%a" Relation.pp r;
  let schema = Relation.schema r in
  List.iter
    (fun (a, c) ->
      Format.printf "  %s is %s: %b@." a c
        (Binding.holds r (Item.of_names schema [ a; c ])))
    [ ("clyde", "dappled"); ("appu", "white"); ("appu", "grey") ]

let fig5 () =
  section "Figure 5" "union subsumption is NOT redundancy (np-hardness boundary)";
  let h = Hierarchy.create "d" in
  ignore (Hierarchy.add_class h "a");
  ignore (Hierarchy.add_class h "b");
  ignore (Hierarchy.add_class h "c");
  ignore (Hierarchy.add_instance h ~parents:[ "a"; "c" ] "x1");
  ignore (Hierarchy.add_instance h ~parents:[ "b"; "c" ] "x2");
  let schema = Schema.make [ ("v", h) ] in
  let r =
    Relation.of_tuples ~name:"r" schema
      [ (Types.Pos, [ "a" ]); (Types.Pos, [ "b" ]); (Types.Pos, [ "c" ]) ]
  in
  let c = Consolidate.consolidate r in
  Format.printf
    "C is covered by A union B, yet the tuple on C survives consolidation: %d -> %d tuples@."
    (Relation.cardinality r) (Relation.cardinality c)

let fig6 () =
  section "Figure 6" "subsumption graph of Respects and its consolidation";
  let r = respects (students ()) (teachers ()) in
  Format.printf "(a) subsumption graph:@.%a" Subsumption.pp r;
  let consolidated, removed = Consolidate.consolidate_verbose r in
  Format.printf "(b) consolidation removes %d tuples:@.%a" (List.length removed)
    Relation.pp consolidated;
  Format.printf "extension unchanged: %b@." (Flatten.equal_extension r consolidated)

let fig7_8 () =
  let r = respects (students ()) (teachers ()) in
  section "Figure 7" "who do obsequious students respect?";
  Format.printf "%a" Relation.pp (Ops.select r ~attr:"student" ~value:"obsequious_student");
  section "Figure 8" "who does John respect?";
  Format.printf "%a" Relation.pp (Ops.select r ~attr:"student" ~value:"john")

let fig9 () =
  section "Figure 9" "a selection on Animal-Color and its justification";
  let r = animal_color (elephants ()) (colors ()) in
  let schema = Relation.schema r in
  let result, applicable = Ops.select_justified r ~attr:"animal" ~value:"clyde" in
  Format.printf "(a) selection (animal = clyde):@.%a(b) justification:@." Relation.pp result;
  List.iter
    (fun (t : Relation.tuple) ->
      Format.printf "  %a%s@." Types.pp_sign t.Relation.sign
        (Item.to_string schema t.Relation.item))
    applicable

let fig10 () =
  section "Figure 10" "set operations on Jack-loves and Jill-loves";
  let h = animals () in
  let schema = Schema.make [ ("creature", h) ] in
  let jack =
    Relation.of_tuples ~name:"jack_loves" schema
      [ (Types.Pos, [ "bird" ]); (Types.Neg, [ "penguin" ]) ]
  in
  let jill = Relation.of_tuples ~name:"jill_loves" schema [ (Types.Pos, [ "penguin" ]) ] in
  Format.printf "(a) jack:@.%a(b) jill:@.%a" Relation.pp jack Relation.pp jill;
  let show label rel =
    Format.printf "(%s):@.%a  = {%s}@." label Relation.pp rel
      (String.concat ", "
         (List.map (fun it -> Item.to_string schema it) (Flatten.extension_list rel)))
  in
  show "c: union" (Ops.union jack jill);
  show "d: intersection" (Ops.inter jack jill);
  show "e: jack - jill" (Ops.diff jack jill);
  show "f: jill - jack" (Ops.diff jill jack)

let fig11 () =
  section "Figure 11" "Enclosure-Size, its join with Animal-Color, projection back";
  let he = elephants () and hc = colors () in
  let hsz = Hierarchy.create "size" in
  ignore (Hierarchy.add_instance hsz "s2000");
  ignore (Hierarchy.add_instance hsz "s3000");
  let enclosure =
    Relation.of_tuples ~name:"enclosure" (Schema.make [ ("animal", he); ("enclosure", hsz) ])
      [
        (Types.Pos, [ "elephant"; "s3000" ]);
        (Types.Neg, [ "indian_elephant"; "s3000" ]);
        (Types.Pos, [ "indian_elephant"; "s2000" ]);
      ]
  in
  let color = animal_color he hc in
  Format.printf "(a) enclosure:@.%a" Relation.pp enclosure;
  let joined = Ops.join enclosure color in
  Format.printf "(b) joined:@.%a" Relation.pp joined;
  let back = Ops.project joined [ "animal"; "color" ] in
  Format.printf "(c) projected back:@.%a" Relation.pp back;
  let schema = Relation.schema color in
  Format.printf "information preserved: clyde dappled = %b, appu grey = %b@."
    (Binding.holds back (Item.of_names schema [ "clyde"; "dappled" ]))
    (Binding.holds back (Item.of_names schema [ "appu"; "grey" ]))

let appendix () =
  section "Appendix" "preemption semantics at Patricia";
  let h = animals () in
  let r = flies h in
  let schema = Relation.schema r in
  let patricia = Item.of_names schema [ "patricia" ] in
  List.iter
    (fun sem ->
      Format.printf "  %-14s -> %s@."
        (Format.asprintf "%a" Types.pp_semantics sem)
        (match Binding.verdict ~semantics:sem r patricia with
        | Binding.Asserted (s, _) -> Format.asprintf "%a" Types.pp_sign s
        | Binding.Unasserted -> "unasserted"
        | Binding.Conflict _ -> "CONFLICT"))
    [ Types.Off_path; Types.On_path; Types.No_preemption ]

let () =
  Format.printf "Regenerating all figures of 'Incorporating Hierarchy in a Relational Model of Data'@.";
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  fig5 ();
  fig6 ();
  fig7_8 ();
  fig9 ();
  fig10 ();
  fig11 ();
  appendix ();
  Format.printf "@.All figures regenerated.@.";
  ignore Dag.to_dot
