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

let walk ?(trace = Sim.Trace.disabled) ~clock ~stats ~table ~mode ~va () =
  (* One lookup finds the leaf, and its size gives the depth it sits at;
     a miss is charged as a walk all the way down to the hole. *)
  let refs found =
    let levels = Page_table.levels table in
    let leaf_depth =
      match found with
      | Some (_, leaf) -> levels - 1 - Page_size.depth_above_leaf leaf.Page_table.size
      | None -> levels - 1
    in
    refs_for_walk ~guest_levels:levels ~leaf_depth ~mode
  in
  Sim.Trace.span trace ~op:"page_walk" ~arg:refs
    ~outcome:(function Some _ -> "ok" | None -> "hole")
  @@ fun () ->
  let found = Page_table.lookup table ~va in
  let refs = refs found in
  let model = Sim.Clock.model clock in
  (* Page-walk caches: upper-level entries hit in the PWC/data caches;
     only the final leaf PTE read goes to memory. *)
  Sim.Clock.charge clock
    (model.Sim.Cost_model.mem_ref_dram + ((refs - 1) * model.Sim.Cost_model.cache_ref));
  Sim.Stats.add stats "walk_refs" refs;
  Sim.Stats.incr stats "page_walks";
  (match found with Some (_, leaf) -> leaf.Page_table.accessed <- true | None -> ());
  found
