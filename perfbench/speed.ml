(* The host's speed, sampled between the benchmark's operations, and
   timings scaled to a fixed reference speed.

   On a shared virtual machine the same work takes up to about 1.8 times
   longer from one second to the next, because other tenants contend for
   the host's caches and memory. A plain arithmetic loop does not see
   this; work that allocates, hashes and compares strings slows down with
   the server's. So perfbench.exe runs a small kernel of that kind about
   twenty times a second, in the gaps between operations on the same
   pinned CPU, and records its CPU time. A duration measured at time [t] is then
   multiplied by [reference_ms] over the kernel's median CPU time near
   [t]: it reads as the time the same work would take on a host where the
   kernel takes [reference_ms]. The kernel is the benchmark's own code and
   uses only the standard library, so no change to the program can move
   it. *)

let reference_ms = 1.0

(* About 1.3 ms of CPU on the development host in its fast phases. *)
let kernel () =
  let h = Hashtbl.create 16 in
  for i = 1 to 1500 do
    Hashtbl.replace h (string_of_int (i * 31)) i
  done;
  let s = ref 0 in
  for i = 1 to 1500 do
    match Hashtbl.find_opt h (string_of_int (i * 17)) with Some v -> s := !s + v | None -> ()
  done;
  let l = List.init 1500 (fun i -> (string_of_int ((i * 7919) land 4095), i)) in
  ignore (Sys.opaque_identity (!s, List.sort compare l))

type sample = { at : float; wall : float; cpu_ms : float }

let samples : sample list ref = ref []
let sorted : sample array option ref = ref None
let last = ref neg_infinity

let sample () =
  let w0 = Unix.gettimeofday () and c0 = Sys.time () in
  kernel ();
  let c1 = Sys.time () and w1 = Unix.gettimeofday () in
  samples := { at = w0; wall = w1 -. w0; cpu_ms = (c1 -. c0) *. 1000. } :: !samples;
  sorted := None;
  last := w1

(* Samples when 50 ms have passed since the last sample: call between
   operations. *)
let tick () = if Unix.gettimeofday () -. !last >= 0.05 then sample ()

(* A few samples at once: call right before and after a timed step that
   gives no gaps of its own (a set-up, a recovery). *)
let burst () =
  for _ = 1 to 3 do
    sample ()
  done

let all () =
  match !sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list !samples in
    Array.sort (fun x y -> compare x.at y.at) a;
    sorted := Some a;
    a

(* The kernel's median CPU time within a quarter second of [t], or over
   the five samples nearest to [t] when fewer than three lie that close.
   The host's speed changes within a second: on recorded runs, a window
   of a quarter second took more of the speed out of the round trips than
   windows of one or five seconds. *)
let kernel_ms_at t =
  let a = all () in
  let near = List.filter (fun s -> Float.abs (s.at -. t) <= 0.25) (Array.to_list a) in
  let near =
    if List.length near >= 3 then near
    else
      Array.to_list a
      |> List.sort (fun x y -> compare (Float.abs (x.at -. t)) (Float.abs (y.at -. t)))
      |> List.filteri (fun i _ -> i < 5)
  in
  if near = [] then reference_ms else Stats.median (List.map (fun s -> s.cpu_ms) near)

let factor t = reference_ms /. kernel_ms_at t

(* A duration that started at [start], at the reference speed. *)
let scale ~start dt = dt *. factor (start +. (dt /. 2.))

(* The wall interval [a, b] at the reference speed, less the time the
   kernel itself took inside it. *)
let scaled_window a b =
  let inside = List.filter (fun s -> s.at >= a && s.at +. s.wall <= b) (Array.to_list (all ())) in
  let rec go from acc = function
    | [] -> acc +. scale ~start:from (b -. from)
    | s :: rest -> go (s.at +. s.wall) (acc +. scale ~start:from (s.at -. from)) rest
  in
  go a 0. inside

(* Durations stamped with their start, scaled when the run is over and
   the samples after them exist too. *)
type spans = { mutable items : (float * float) list }

let spans () = { items = [] }
let add s ~start dt = s.items <- (start, dt) :: s.items
let count s = List.length s.items
let scaled s = List.map (fun (start, dt) -> scale ~start dt) s.items

(* The kernel's median CPU time and the spread of its middle half over
   the whole run, for the report. *)
let summary () =
  let ms = List.map (fun s -> s.cpu_ms) (Array.to_list (all ())) in
  (Stats.median ms, Stats.percentile 25. ms, Stats.percentile 75. ms, List.length ms)
