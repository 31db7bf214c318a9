module Item_set = Set.Make (Item)

let m_extensions = Hr_obs.Metrics.counter "core.flatten.extensions"
let m_items_out = Hr_obs.Metrics.counter "core.flatten.items_out"

(* A full explication keeps only positive atomic tuples, so its items,
   already in item order, are the extension. *)
let extension_list rel =
  Hr_obs.Metrics.incr m_extensions;
  let items = Relation.items (Explicate.explicate rel) in
  Hr_obs.Metrics.add m_items_out (List.length items);
  items

let extension rel = Item_set.of_list (extension_list rel)

let equal_extension a b =
  Schema.equal (Relation.schema a) (Relation.schema b)
  && Item_set.equal (extension a) (extension b)
