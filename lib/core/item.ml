module Hierarchy = Hr_hierarchy.Hierarchy

type t = int array

let make schema coords =
  if Array.length coords <> Schema.arity schema then
    Types.model_error "item arity %d does not match schema arity %d"
      (Array.length coords) (Schema.arity schema);
  Array.iteri
    (fun i v ->
      let h = Schema.hierarchy schema i in
      (* node_name checks liveness and raises Hierarchy.Error otherwise *)
      ignore (Hierarchy.node_name h v))
    coords;
  Array.copy coords

let of_names schema names =
  if List.length names <> Schema.arity schema then
    Types.model_error "expected %d values, got %d" (Schema.arity schema) (List.length names);
  Array.of_list
    (List.mapi (fun i name -> Hierarchy.find_exn (Schema.hierarchy schema i) name) names)

let coords t = Array.copy t
let coord t i = t.(i)
let arity = Array.length

(* The order [Stdlib.compare] gives int arrays — length first, then
   lexicographic — without its polymorphic dispatch. The loops are
   top-level functions so that a comparison allocates no closure. *)
let rec compare_from (a : t) (b : t) i n =
  if i >= n then 0
  else
    let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
    if c <> 0 then c else compare_from a b (i + 1) n

let compare (a : t) (b : t) =
  let n = Array.length a in
  let c = Int.compare n (Array.length b) in
  if c <> 0 then c else compare_from a b 0 n

let rec equal_from (a : t) (b : t) i n =
  i >= n || (Int.equal (Array.unsafe_get a i) (Array.unsafe_get b i) && equal_from a b (i + 1) n)

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b && equal_from a b 0 n

let hash (t : t) = Hashtbl.hash t

let rec atomic_from schema t i =
  i >= Array.length t
  || (Hierarchy.is_instance (Schema.hierarchy schema i) t.(i) && atomic_from schema t (i + 1))

let is_atomic schema t = atomic_from schema t 0

let forall2 schema p a b =
  let n = Array.length a in
  let rec loop i = i >= n || (p (Schema.hierarchy schema i) a.(i) b.(i) && loop (i + 1)) in
  loop 0

let subsumes schema a b = forall2 schema Hierarchy.subsumes a b
let strictly_subsumes schema a b = (not (equal a b)) && subsumes schema a b
let binds_below schema a b = forall2 schema Hierarchy.binds_below a b
let comparable schema a b = subsumes schema a b || subsumes schema b a
let intersects schema a b = forall2 schema Hierarchy.intersects a b

(* Cartesian product of per-coordinate choices. *)
let product_map (choices : int list array) : t list =
  let n = Array.length choices in
  let rec build i acc =
    if i < 0 then acc
    else
      build (i - 1)
        (List.concat_map (fun rest -> List.map (fun v -> v :: rest) choices.(i)) acc)
  in
  List.map Array.of_list (build (n - 1) [ [] ])

let maximal_common_descendants schema a b =
  let n = Array.length a in
  let choices = Array.make n [] in
  let nonempty = ref true in
  for i = 0 to n - 1 do
    let mcd = Hierarchy.maximal_common_descendants (Schema.hierarchy schema i) a.(i) b.(i) in
    if mcd = [] then nonempty := false;
    choices.(i) <- mcd
  done;
  if !nonempty then product_map choices else []

let substitute t i v =
  let t' = Array.copy t in
  t'.(i) <- v;
  t'

let project t positions = Array.of_list (List.map (fun i -> t.(i)) positions)
let concat = Array.append

let atomic_extension schema ?over t =
  let n = Array.length t in
  let over = match over with None -> List.init n Fun.id | Some l -> l in
  let choices =
    Array.mapi
      (fun i v ->
        if List.mem i over then Hierarchy.leaves_under (Schema.hierarchy schema i) v
        else [ v ])
      t
  in
  if Array.exists (fun c -> c = []) choices then [] else product_map choices

let pp schema ppf t =
  Format.pp_print_string ppf "(";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.pp_print_string ppf ", ";
      let h = Schema.hierarchy schema i in
      if Hierarchy.is_class h v then Format.pp_print_string ppf "V ";
      Format.pp_print_string ppf (Hierarchy.node_label h v))
    t;
  Format.pp_print_string ppf ")"

let to_string schema t = Format.asprintf "%a" (pp schema) t
