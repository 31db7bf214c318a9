(* A process-wide metrics registry: monotonic counters, gauges and
   latency histograms, identified by dotted names. Instrumented modules
   register their handles once at module-initialization time; the hot
   path of every operation is a single guarded update, so a disabled
   registry is a no-op sink that allocates nothing and perturbs nothing.

   Multicore: instrumented code runs on the writer event loop {e and} on
   reader domains (lib/exec), so every instrument must tolerate
   concurrent updates without losing structure. Counters are sharded
   into per-domain atomic cells (summed at read time) so reader domains
   do not contend on one cache line; gauges are a single atomic cell;
   histograms take a tiny per-histogram mutex (observations are
   per-frame, not per-tuple, so the lock is off every hot loop).
   Registration stays Hashtbl-based but is mutex-protected — in
   practice all registration happens at module init, before any domain
   spawns. *)

(* Cells are sharded by domain id; collisions just share a cell (the
   updates are atomic either way, nothing is lost). *)
let shards = 8

let slot () = (Domain.self () :> int) land (shards - 1)

type counter = { c_name : string; cells : int Atomic.t array }
type gauge = { g_name : string; g_cell : int Atomic.t }

(* Histograms bucket nanosecond latencies by magnitude: bucket [i] holds
   observations with [2^i <= ns < 2^(i+1)] (bucket 0 also takes <= 1ns).
   64 buckets cover every value an int can hold, so the bucket counts
   always conserve the total observation count — including under
   concurrent observers, because the mutex makes each observation's
   bucket increment and total increment one atomic step. *)
let bucket_count = 64

type histogram = {
  h_name : string;
  h_mu : Mutex.t;
  buckets : int array;
  mutable total : int;
  mutable sum_ns : int;
  mutable min_ns : int;
  mutable max_ns : int;
}

type t = {
  reg_mu : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    reg_mu = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
  }

let default = create ()

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let with_enabled b f =
  let saved = Atomic.get enabled_flag in
  Atomic.set enabled_flag b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag saved) f

(* ---- registration ----------------------------------------------------- *)

let registered mu tbl name make =
  Mutex.lock mu;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
      let v = make () in
      Hashtbl.replace tbl name v;
      v
  in
  Mutex.unlock mu;
  v

let counter ?(registry = default) name =
  registered registry.reg_mu registry.counters name (fun () ->
      { c_name = name; cells = Array.init shards (fun _ -> Atomic.make 0) })

let gauge ?(registry = default) name =
  registered registry.reg_mu registry.gauges name (fun () ->
      { g_name = name; g_cell = Atomic.make 0 })

let histogram ?(registry = default) name =
  registered registry.reg_mu registry.histograms name (fun () ->
      { h_name = name; h_mu = Mutex.create (); buckets = Array.make bucket_count 0;
        total = 0; sum_ns = 0; min_ns = max_int; max_ns = 0 })

(* ---- hot-path updates ------------------------------------------------- *)

let incr c = if Atomic.get enabled_flag then Atomic.incr c.cells.(slot ())

(* Counters are monotonic by construction: negative deltas are ignored. *)
let add c n =
  if Atomic.get enabled_flag && n > 0 then
    ignore (Atomic.fetch_and_add c.cells.(slot ()) n)

let value c = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells

let set g v = if Atomic.get enabled_flag then Atomic.set g.g_cell v

let level g = Atomic.get g.g_cell

let bucket_of ns =
  if ns <= 1 then 0
  else begin
    let i = ref 0 and v = ref ns in
    while !v > 1 do
      v := !v lsr 1;
      Stdlib.incr i
    done;
    min (bucket_count - 1) !i
  end

let observe h ns =
  if Atomic.get enabled_flag then begin
    let ns = max 0 ns in
    Mutex.lock h.h_mu;
    h.buckets.(bucket_of ns) <- h.buckets.(bucket_of ns) + 1;
    h.total <- h.total + 1;
    h.sum_ns <- h.sum_ns + ns;
    if ns < h.min_ns then h.min_ns <- ns;
    if ns > h.max_ns then h.max_ns <- ns;
    Mutex.unlock h.h_mu
  end

let observations h =
  Mutex.lock h.h_mu;
  let n = h.total in
  Mutex.unlock h.h_mu;
  n

(* ---- clock ------------------------------------------------------------ *)

let now_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))

let time h f =
  let t0 = now_ns () in
  Fun.protect ~finally:(fun () -> observe h (now_ns () - t0)) f

(* ---- lookup by name --------------------------------------------------- *)

let counter_value ?(registry = default) name =
  match Hashtbl.find_opt registry.counters name with Some c -> value c | None -> 0

let gauge_value ?(registry = default) name =
  match Hashtbl.find_opt registry.gauges name with Some g -> level g | None -> 0

(* ---- snapshots -------------------------------------------------------- *)

type hist_stats = {
  name : string;
  count : int;
  sum : int;
  min : int;  (** meaningless (0) when [count = 0] *)
  max : int;
  nonzero_buckets : (int * int) list;  (** (magnitude exponent, count) *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;
  histograms : hist_stats list;
}

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_stats (h : histogram) =
  Mutex.lock h.h_mu;
  let nonzero = ref [] in
  for i = bucket_count - 1 downto 0 do
    if h.buckets.(i) > 0 then nonzero := (i, h.buckets.(i)) :: !nonzero
  done;
  let stats =
    {
      name = h.h_name;
      count = h.total;
      sum = h.sum_ns;
      min = (if h.total = 0 then 0 else h.min_ns);
      max = h.max_ns;
      nonzero_buckets = !nonzero;
    }
  in
  Mutex.unlock h.h_mu;
  stats

let snapshot ?(registry = default) () =
  {
    counters = sorted_bindings registry.counters value;
    gauges = sorted_bindings registry.gauges level;
    histograms =
      Hashtbl.fold (fun _ h acc -> hist_stats h :: acc) registry.histograms []
      |> List.sort (fun a b -> String.compare a.name b.name);
  }

let reset ?(registry = default) () =
  Hashtbl.iter
    (fun _ (c : counter) -> Array.iter (fun cell -> Atomic.set cell 0) c.cells)
    registry.counters;
  Hashtbl.iter (fun _ (g : gauge) -> Atomic.set g.g_cell 0) registry.gauges;
  Hashtbl.iter
    (fun _ (h : histogram) ->
      Mutex.lock h.h_mu;
      Array.fill h.buckets 0 bucket_count 0;
      h.total <- 0;
      h.sum_ns <- 0;
      h.min_ns <- max_int;
      h.max_ns <- 0;
      Mutex.unlock h.h_mu)
    registry.histograms

(* ---- rendering -------------------------------------------------------- *)

let ms ns = float_of_int ns /. 1e6

let render_text snap =
  let buf = Buffer.create 512 in
  if snap.counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-42s %d\n" name v))
      snap.counters
  end;
  if snap.gauges <> [] then begin
    Buffer.add_string buf "gauges:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-42s %d\n" name v))
      snap.gauges
  end;
  if snap.histograms <> [] then begin
    Buffer.add_string buf "histograms:\n";
    List.iter
      (fun h ->
        let mean = if h.count = 0 then 0. else ms h.sum /. float_of_int h.count in
        Buffer.add_string buf
          (Printf.sprintf "  %-42s count=%d mean=%.3fms min=%.3fms max=%.3fms\n" h.name
             h.count mean (ms h.min) (ms h.max)))
      snap.histograms
  end;
  if Buffer.length buf = 0 then "no metrics recorded\n" else Buffer.contents buf

let json_of_snapshot snap =
  let open Jsonout in
  Obj
    [
      ("schema_version", Int 1);
      ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) snap.counters));
      ("gauges", Obj (List.map (fun (k, v) -> (k, Int v)) snap.gauges));
      ( "histograms",
        Obj
          (List.map
             (fun h ->
               ( h.name,
                 Obj
                   [
                     ("count", Int h.count);
                     ("sum_ns", Int h.sum);
                     ("min_ns", Int h.min);
                     ("max_ns", Int h.max);
                     ( "buckets",
                       List
                         (List.map
                            (fun (exp, n) -> List [ Int exp; Int n ])
                            h.nonzero_buckets) );
                   ] ))
             snap.histograms) );
    ]

let render_json snap = Jsonout.to_string (json_of_snapshot snap)
