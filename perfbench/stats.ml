(* Order statistics over samples. Percentiles interpolate linearly
   between closest ranks (the "inclusive" method of Python's
   statistics.quantiles). *)

let percentile p samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.of_int (truncate rank)) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median samples = percentile 50. samples

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* A growable sample buffer. *)
type t = { mutable xs : float list; mutable n : int }

let create () = { xs = []; n = 0 }

let add t x =
  t.xs <- x :: t.xs;
  t.n <- t.n + 1

let to_list t = t.xs
let count t = t.n
