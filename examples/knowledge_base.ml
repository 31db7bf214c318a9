(* A small knowledge base driven end to end through HRQL — the paper's
   pitch of the model as a back end for knowledge representation
   systems (§1): taxonomy, exceptions and justification queried through
   the language.

   Run with: dune exec examples/knowledge_base.exe *)

module Eval = Hr_query.Eval
open Hierel

let script =
  {|
  CREATE DOMAIN animal;
  CREATE CLASS bird UNDER animal;
  CREATE CLASS canary UNDER bird;
  CREATE CLASS penguin UNDER bird;
  CREATE CLASS amazing_flying_penguin UNDER penguin;
  CREATE INSTANCE tweety OF canary;
  CREATE INSTANCE paul OF penguin;
  CREATE INSTANCE pamela OF amazing_flying_penguin;

  CREATE RELATION flies (creature: animal);
  INSERT INTO flies VALUES (+ ALL bird), (- ALL penguin), (+ ALL amazing_flying_penguin);

  CREATE DOMAIN place;
  CREATE INSTANCE antarctica OF place;
  CREATE INSTANCE amazon OF place;
  CREATE RELATION lives_in (creature: animal, place: place);
  INSERT INTO lives_in VALUES (+ ALL penguin, antarctica), (+ tweety, amazon);
  |}

let () =
  let cat = Catalog.create () in
  (match Eval.run_script cat script with
  | Ok _ -> ()
  | Error msg -> failwith msg);

  (* interactive-style queries through the language *)
  List.iter
    (fun q ->
      match Eval.run_script cat q with
      | Ok outputs -> List.iter (fun o -> Format.printf "> %s@.%s@." (String.trim q) o) outputs
      | Error msg -> Format.printf "error: %s@." msg)
    [
      "ASK flies (pamela);";
      "SELECT * FROM flies WHERE creature = paul WITH JUSTIFICATION;";
      "SELECT * FROM lives_in WHERE place = antarctica;";
    ]
