module Item_set = Set.Make (Item)

let m_extensions = Hr_obs.Metrics.counter "core.flatten.extensions"
let m_items_out = Hr_obs.Metrics.counter "core.flatten.items_out"

let extension rel =
  Hr_obs.Metrics.incr m_extensions;
  let ext =
    Relation.fold
      (fun (t : Relation.tuple) acc -> Item_set.add t.Relation.item acc)
      (Explicate.explicate rel) Item_set.empty
  in
  Hr_obs.Metrics.add m_items_out (Item_set.cardinal ext);
  ext

let extension_list rel = Item_set.elements (extension rel)

let equal_extension a b =
  Schema.equal (Relation.schema a) (Relation.schema b)
  && Item_set.equal (extension a) (extension b)
