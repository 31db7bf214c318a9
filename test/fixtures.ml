(* The paper's running examples, shared by the test suites, the examples
   and the figure regenerator.

   - Figure 1: the animal taxonomy and the Flies relation (flying
     creatures with penguin exceptions and exceptions to the exception).
   - Figures 2/3/6: the Student and Teacher hierarchies and the Respects
     relation.
   - Figures 4/9/11: the elephant hierarchy with the Animal-Color and
     Animal-Enclosure relations (Clyde the royal elephant).
   - Figure 10: the Loves relations of Jack and Jill. *)

module Hierarchy = Hr_hierarchy.Hierarchy
open Hierel

(* -- Figure 1a: animal taxonomy ------------------------------------- *)

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

(* -- Figure 1b: the Flies relation ---------------------------------- *)

let flies_schema h = Schema.make [ ("creature", h) ]

let flies h =
  Relation.of_tuples ~name:"flies" (flies_schema h)
    [
      (Types.Pos, [ "bird" ]);
      (Types.Neg, [ "penguin" ]);
      (Types.Pos, [ "amazing_flying_penguin" ]);
      (Types.Pos, [ "peter" ]);
    ]

(* -- Figures 2a/2b: student and teacher hierarchies ----------------- *)

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

(* -- Figure 3: the Respects relation -------------------------------- *)

let respects_schema hs ht = Schema.make [ ("student", hs); ("teacher", ht) ]

(* The two tuples above the dashed line (inconsistent on their own). *)
let respects_unresolved hs ht =
  Relation.of_tuples ~name:"respects" (respects_schema hs ht)
    [
      (Types.Pos, [ "obsequious_student"; "teacher" ]);
      (Types.Neg, [ "student"; "incoherent_teacher" ]);
    ]

let respects hs ht =
  Relation.add_named (respects_unresolved hs ht) Types.Pos
    [ "obsequious_student"; "incoherent_teacher" ]

(* -- Figure 4: elephants -------------------------------------------- *)

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
  ignore (Hierarchy.add_instance h "grey");
  ignore (Hierarchy.add_instance h "white");
  ignore (Hierarchy.add_instance h "dappled");
  h

let color_schema he hc = Schema.make [ ("animal", he); ("color", hc) ]

let animal_color he hc =
  Relation.of_tuples ~name:"animal_color" (color_schema he hc)
    [
      (Types.Pos, [ "elephant"; "grey" ]);
      (Types.Neg, [ "royal_elephant"; "grey" ]);
      (Types.Pos, [ "royal_elephant"; "white" ]);
      (Types.Neg, [ "clyde"; "white" ]);
      (Types.Pos, [ "clyde"; "dappled" ]);
    ]

(* -- Figure 11a: enclosure sizes ------------------------------------ *)

let sizes () =
  let h = Hierarchy.create "size" in
  ignore (Hierarchy.add_instance h "s2000");
  ignore (Hierarchy.add_instance h "s3000");
  h

let enclosure_schema he hsz = Schema.make [ ("animal", he); ("enclosure", hsz) ]

let enclosure he hsz =
  Relation.of_tuples ~name:"enclosure" (enclosure_schema he hsz)
    [
      (Types.Pos, [ "elephant"; "s3000" ]);
      (Types.Neg, [ "indian_elephant"; "s3000" ]);
      (Types.Pos, [ "indian_elephant"; "s2000" ]);
    ]

(* -- Figure 10: Jack and Jill --------------------------------------- *)

let loves_schema h = Schema.make [ ("creature", h) ]

let jack_loves h =
  Relation.of_tuples ~name:"jack_loves" (loves_schema h)
    [ (Types.Pos, [ "bird" ]); (Types.Neg, [ "penguin" ]) ]

let jill_loves h =
  Relation.of_tuples ~name:"jill_loves" (loves_schema h)
    [ (Types.Pos, [ "penguin" ]) ]

(* -- Alcotest helpers ------------------------------------------------ *)

let sign = Alcotest.testable Types.pp_sign Types.sign_equal

let item schema =
  Alcotest.testable (fun ppf i -> Item.pp schema ppf i) Item.equal

let verdict_sign = function
  | Binding.Asserted (s, _) -> Some s
  | Binding.Unasserted -> None
  | Binding.Conflict _ -> None

let is_conflict = function
  | Binding.Conflict _ -> true
  | Binding.Asserted _ | Binding.Unasserted -> false

let check_holds rel names expected msg =
  let it = Item.of_names (Relation.schema rel) names in
  Alcotest.(check bool) msg expected (Binding.holds rel it)

(* -- Checked-in fixture files ----------------------------------------- *)

(* Paths that do not depend on the working directory, which is
   _build/default/test under [dune runtest] but wherever the command was
   typed under [dune exec test/main.exe]. The executable itself is built
   at <root>/_build/default/test/main.exe. *)
let exe_dir = Filename.dirname Sys.executable_name
let source_root = Filename.dirname (Filename.dirname (Filename.dirname exe_dir))

(* The path of [name] under test/fixtures: the copy [dune runtest] makes
   beside the executable, else the source tree's (a bare [dune exec]
   need not make the copy). *)
let file name =
  let built = Filename.concat (Filename.concat exe_dir "fixtures") name in
  if Sys.file_exists built then built
  else List.fold_left Filename.concat source_root [ "test"; "fixtures"; name ]

let read name =
  let ic = open_in_bin (file name) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
