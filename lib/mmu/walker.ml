type mode = Native | Virtualized of int

let refs_for_walk ~guest_levels ~leaf_depth ~mode =
  let g = leaf_depth + 1 in
  (* g guest-table references to reach the leaf. *)
  ignore guest_levels;
  match mode with
  | Native -> g
  | Virtualized h ->
    (* Each guest reference costs a host walk (h refs) plus itself, and the
       final guest-physical data address needs one more host walk:
       g*(h+1) + h = (g+1)*(h+1) - 1. *)
    ((g + 1) * (h + 1)) - 1

let walk ~trace ~clock ~stats ~table ~mode ~va =
  let start = Sim.Trace.enter trace ~op:"page_walk" in
  match Page_table.find table ~va with
  | exception e ->
    Sim.Trace.leave_raised trace ~op:"page_walk" ~start;
    raise e
  | leaf ->
    (* One lookup finds the leaf, and its size gives the depth it sits
       at; a miss is charged as a walk all the way down to the hole. *)
    let hole = leaf == Page_table.no_leaf in
    let levels = Page_table.levels table in
    let leaf_depth =
      if hole then levels - 1 else levels - 1 - Page_size.depth_above_leaf leaf.Page_table.size
    in
    let refs = refs_for_walk ~guest_levels:levels ~leaf_depth ~mode in
    (* Page-walk caches: upper-level entries hit in the PWC/data caches;
       only the final leaf PTE read goes to memory. *)
    Sim.Clock.charge clock (Sim.Cost_model.mem_ref_dram + ((refs - 1) * Sim.Cost_model.cache_ref));
    Sim.Stats.add stats "walk_refs" refs;
    Sim.Stats.incr stats "page_walks";
    if not hole then leaf.Page_table.accessed <- true;
    Sim.Trace.leave trace ~op:"page_walk" ~start ~arg:refs ~outcome:(if hole then "hole" else "ok");
    leaf
