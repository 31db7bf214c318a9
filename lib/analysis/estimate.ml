(** The `EXPLAIN ESTIMATE` surface over {!Cost_model}.

    Renders an annotated plan in the same indented-tree shape as
    [EXPLAIN ANALYZE], with estimated rows and cumulative cost instead
    of measured counters, and registers itself as {!Hr_query.Eval}'s
    estimator at module-init time (the analysis library sits above the
    query library, so the dependency is inverted through a hook). *)

let plans_counter = Hr_obs.Metrics.counter "analysis.estimate.plans"
let nodes_counter = Hr_obs.Metrics.counter "analysis.estimate.nodes"

let rec count_nodes (n : Cost_model.node) =
  List.fold_left (fun acc c -> acc + count_nodes c) 1 n.Cost_model.n_children

let render root =
  let buf = Buffer.create 512 in
  let rec walk depth (n : Cost_model.node) =
    let open Cost_model in
    let note =
      match n.n_kind with
      | Selection { selectivity } -> Printf.sprintf " selectivity=%.2f" selectivity
      | Joining { cartesian = true } -> " cartesian"
      | Flatten { expansion } -> Printf.sprintf " expansion=%.1f" expansion
      | Scan _ | Joining _ | Opaque -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%s  est-rows=%.0f est-cost=%.1f%s%s\n"
         (String.make (2 * depth) ' ')
         n.n_label n.n_rows n.n_cost note
         (if n.n_exact then " (exact)" else ""));
    List.iter (walk (depth + 1)) n.n_children
  in
  walk 0 root;
  Buffer.contents buf

let explain cat expr =
  match Cost_model.plan cat expr with
  | Error msg -> Error msg
  | Ok (optimized, root) ->
    Hr_obs.Metrics.incr plans_counter;
    Hr_obs.Metrics.add nodes_counter (count_nodes root);
    Ok
      (Printf.sprintf "plan: %s\n%sestimated cost: %.1f work unit(s)"
         (Hr_query.Optimizer.describe optimized)
         (render root) root.Cost_model.n_cost)

(* [EXPLAIN ESTIMATE] statements evaluated anywhere in the process now
   route here. *)
let () = Hr_query.Eval.set_estimator explain

let ensure_registered () = ()
