module Frame = Physmem.Frame

type leaf = {
  mutable pfn : Frame.t;
  mutable prot : Prot.t;
  mutable accessed : bool;
  mutable dirty : bool;
  size : Page_size.t;
}

type entry = Empty | Table of node | Leaf of leaf

and node = {
  frame : Frame.t;
  entries : entry array;
  mutable live : int; (* non-empty entries *)
  mutable refs : int; (* parents pointing at this node (graft sharing) *)
}

type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  levels : int;
  alloc_frame : unit -> Frame.t;
  root : node;
  mutable owned_nodes : int;
}

let fanout = 512
let bits_per_level = 9

let model t = Sim.Clock.model t.clock
let charge t c = Sim.Clock.charge t.clock c

let new_node t =
  let frame = t.alloc_frame () in
  charge t (model t).Sim.Cost_model.pt_node_alloc;
  Sim.Stats.incr t.stats "pt_node_alloc";
  t.owned_nodes <- t.owned_nodes + 1;
  { frame; entries = Array.make fanout Empty; live = 0; refs = 1 }

let create ~clock ~stats ~levels ~alloc_frame =
  if levels <> 4 && levels <> 5 then invalid_arg "Page_table.create: levels must be 4 or 5";
  let frame = alloc_frame () in
  Sim.Clock.charge clock (Sim.Clock.model clock).Sim.Cost_model.pt_node_alloc;
  let root = { frame; entries = Array.make fanout Empty; live = 0; refs = 1 } in
  { clock; stats; levels; alloc_frame; root; owned_nodes = 1 }

let levels t = t.levels
let va_bits t = (t.levels * bits_per_level) + Sim.Units.page_shift

(* Shift for the index of a node at [depth]; root is depth 0. *)
let shift t ~depth = Sim.Units.page_shift + (bits_per_level * (t.levels - 1 - depth))
let index t ~depth va = (va lsr shift t ~depth) land (fanout - 1)
let entry_span t ~depth = 1 lsl shift t ~depth

let max_va t = 1 lsl va_bits t

let check_va t va =
  if va < 0 || va >= max_va t then invalid_arg "Page_table: VA out of range"

(* Depth of the node holding the leaf for a page of [size]. *)
let leaf_node_depth t size = t.levels - 1 - Page_size.depth_above_leaf size

(* Walk to the node at [depth] along [va], creating missing interior
   nodes when [create_path] is set. *)
let rec descend t node ~cur ~depth ~va ~create_path =
  if cur = depth then Some node
  else
    let i = index t ~depth:cur va in
    match node.entries.(i) with
    | Table child -> descend t child ~cur:(cur + 1) ~depth ~va ~create_path
    | Leaf _ -> None
    | Empty ->
      if not create_path then None
      else begin
        let child = new_node t in
        node.entries.(i) <- Table child;
        node.live <- node.live + 1;
        descend t child ~cur:(cur + 1) ~depth ~va ~create_path
      end

let map_page t ~va ~pfn ~prot ~size =
  check_va t va;
  let bytes = Page_size.bytes size in
  if not (Sim.Units.is_aligned va ~align:bytes) then
    invalid_arg "Page_table.map_page: misaligned VA";
  if not (Sim.Units.is_aligned (Frame.to_addr pfn) ~align:bytes) then
    invalid_arg "Page_table.map_page: misaligned PA";
  let depth = leaf_node_depth t size in
  match descend t t.root ~cur:0 ~depth ~va ~create_path:true with
  | None -> invalid_arg "Page_table.map_page: blocked by an existing mapping"
  | Some node ->
    let i = index t ~depth va in
    (match node.entries.(i) with
    | Empty ->
      node.entries.(i) <- Leaf { pfn; prot; accessed = false; dirty = false; size };
      node.live <- node.live + 1;
      charge t (model t).Sim.Cost_model.pte_write;
      Sim.Stats.incr t.stats "pte_write"
    | Leaf _ -> invalid_arg "Page_table.map_page: already mapped"
    | Table _ -> invalid_arg "Page_table.map_page: occupied by a page-table subtree")

let map_range t ~va ~pfn ~len ~prot ~huge =
  check_va t va;
  let pa = Frame.to_addr pfn in
  if not (Sim.Units.is_aligned va ~align:Sim.Units.page_size)
     || not (Sim.Units.is_aligned len ~align:Sim.Units.page_size)
  then invalid_arg "Page_table.map_range: unaligned VA or length";
  let rec loop va pa remaining count =
    if remaining = 0 then count
    else
      let size =
        if huge then
          (* Both the virtual and physical cursors must be aligned. *)
          let s_va = Page_size.largest_for ~addr:va ~len:remaining in
          let s_pa = Page_size.largest_for ~addr:pa ~len:remaining in
          if Page_size.bytes s_va <= Page_size.bytes s_pa then s_va else s_pa
        else Page_size.Small
      in
      let b = Page_size.bytes size in
      map_page t ~va ~pfn:(Frame.of_addr pa) ~prot ~size;
      loop (va + b) (pa + b) (remaining - b) (count + 1)
  in
  loop va pa len 0

(* Walk down recording the path so we can prune empty nodes. Fails (None)
   if the leaf is missing. *)
let path_to_leaf t va =
  let rec loop node depth acc =
    let i = index t ~depth va in
    match node.entries.(i) with
    | Empty -> None
    | Leaf leaf -> Some (leaf, (node, i) :: acc)
    | Table child -> loop child (depth + 1) ((node, i) :: acc)
  in
  loop t.root 0 []

let free_node t node =
  t.owned_nodes <- t.owned_nodes - 1;
  Sim.Stats.incr t.stats "pt_node_free";
  ignore node.frame

let unmap_page t ~va =
  check_va t va;
  match path_to_leaf t va with
  | None -> invalid_arg "Page_table.unmap_page: not mapped"
  | Some (_, path) ->
    charge t (model t).Sim.Cost_model.pte_write;
    Sim.Stats.incr t.stats "pte_clear";
    (* path is deepest-first. Clearing a leaf inside a shared subtree is
       legitimate (all sharers see the unmap — that is the semantics of a
       shared mapping), but a node referenced by other tables must never
       be pruned. *)
    let rec clear = function
      | [] -> ()
      | (node, i) :: rest ->
        (match node.entries.(i) with
        | Empty -> ()
        | Leaf _ ->
          node.entries.(i) <- Empty;
          node.live <- node.live - 1
        | Table child ->
          if child.live = 0 && child.refs = 1 then begin
            node.entries.(i) <- Empty;
            node.live <- node.live - 1;
            free_node t child
          end);
        (* Continue pruning upward only while nodes empty out. *)
        (match node.entries.(i) with
        | Empty when node.live = 0 -> clear rest
        | _ -> ())
    in
    clear path

let ensure_node t ~va ~depth =
  check_va t va;
  if depth < 0 || depth >= t.levels then invalid_arg "Page_table.ensure_node: bad depth";
  match descend t t.root ~cur:0 ~depth ~va ~create_path:true with
  | Some _ -> ()
  | None -> invalid_arg "Page_table.ensure_node: blocked by an existing leaf"

let lookup t ~va =
  check_va t va;
  let rec loop node depth =
    let i = index t ~depth va in
    match node.entries.(i) with
    | Empty -> None
    | Leaf leaf ->
      let span = Page_size.bytes leaf.size in
      let off = va land (span - 1) in
      Some (Frame.to_addr leaf.pfn + off, leaf)
    | Table child -> loop child (depth + 1)
  in
  loop t.root 0

let unmap_range t ~va ~len =
  check_va t va;
  if len <= 0 then 0
  else begin
    check_va t (va + len - 1);
    let count = ref 0 in
    let cursor = ref va in
    while !cursor < va + len do
      match lookup t ~va:!cursor with
      | None -> cursor := !cursor + Sim.Units.page_size
      | Some (_, leaf) ->
        let span = Page_size.bytes leaf.size in
        let base = Sim.Units.round_down !cursor ~align:span in
        unmap_page t ~va:base;
        incr count;
        cursor := base + span
    done;
    !count
  end

let protect_range t ~va ~len ~prot =
  check_va t va;
  if len <= 0 then 0
  else begin
    let count = ref 0 in
    let cursor = ref va in
    while !cursor < va + len do
      (match lookup t ~va:!cursor with
      | None -> cursor := !cursor + Sim.Units.page_size
      | Some (_, leaf) ->
        leaf.prot <- prot;
        charge t (model t).Sim.Cost_model.pte_write;
        Sim.Stats.incr t.stats "pte_protect";
        incr count;
        let span = Page_size.bytes leaf.size in
        cursor := Sim.Units.round_down !cursor ~align:span + span)
    done;
    !count
  end

let node_at t ~va ~depth =
  (* The node at [depth] whose entry (index of va) roots the subtree. *)
  descend t t.root ~cur:0 ~depth ~va ~create_path:false

let share_subtree ~src ~src_va ~dst ~dst_va ~depth =
  if src.levels <> dst.levels then invalid_arg "Page_table.share_subtree: level mismatch";
  if depth <= 0 || depth >= src.levels then invalid_arg "Page_table.share_subtree: bad depth";
  let span = entry_span src ~depth:(depth - 1) in
  (* The shared unit is the subtree under one entry of a depth-1 node...
     concretely: the entry at [depth-1] indexed by va points to the node
     at [depth]. Alignment must be to that entry's span. *)
  if not (Sim.Units.is_aligned src_va ~align:span) || not (Sim.Units.is_aligned dst_va ~align:span)
  then invalid_arg "Page_table.share_subtree: VAs not aligned to subtree span";
  match node_at src ~va:src_va ~depth with
  | None -> invalid_arg "Page_table.share_subtree: source subtree missing"
  | Some src_node -> (
    match descend dst dst.root ~cur:0 ~depth:(depth - 1) ~va:dst_va ~create_path:true with
    | None -> invalid_arg "Page_table.share_subtree: destination blocked"
    | Some parent ->
      let i = index dst ~depth:(depth - 1) dst_va in
      (match parent.entries.(i) with
      | Empty ->
        parent.entries.(i) <- Table src_node;
        parent.live <- parent.live + 1;
        src_node.refs <- src_node.refs + 1;
        Sim.Clock.charge dst.clock (Sim.Clock.model dst.clock).Sim.Cost_model.pte_write;
        Sim.Stats.incr dst.stats "pt_subtree_share"
      | _ -> invalid_arg "Page_table.share_subtree: destination slot occupied"))

let unshare t ~va ~depth =
  if depth <= 0 || depth >= t.levels then invalid_arg "Page_table.unshare: bad depth";
  match descend t t.root ~cur:0 ~depth:(depth - 1) ~va ~create_path:false with
  | None -> invalid_arg "Page_table.unshare: no such entry"
  | Some parent -> (
    let i = index t ~depth:(depth - 1) va in
    match parent.entries.(i) with
    | Table child when child.refs > 1 ->
      child.refs <- child.refs - 1;
      parent.entries.(i) <- Empty;
      parent.live <- parent.live - 1;
      charge t (model t).Sim.Cost_model.pte_write;
      Sim.Stats.incr t.stats "pt_subtree_unshare"
    | Table _ -> invalid_arg "Page_table.unshare: subtree is not shared"
    | Empty | Leaf _ -> invalid_arg "Page_table.unshare: no subtree at this entry")

let is_shared_at t ~va ~depth =
  if depth <= 0 || depth >= t.levels then false
  else
    match descend t t.root ~cur:0 ~depth:(depth - 1) ~va ~create_path:false with
    | None -> false
    | Some parent -> (
      match parent.entries.(index t ~depth:(depth - 1) va) with
      | Table child -> child.refs > 1
      | Empty | Leaf _ -> false)

let iter_leaves t f =
  let rec walk node depth va_base =
    Array.iteri
      (fun i e ->
        let va = va_base + (i * entry_span t ~depth) in
        match e with
        | Empty -> ()
        | Leaf leaf -> f va leaf
        | Table child -> walk child (depth + 1) va)
      node.entries
  in
  walk t.root 0 0

let pte_count t =
  let n = ref 0 in
  iter_leaves t (fun _ _ -> incr n);
  !n

let node_count t = t.owned_nodes
let metadata_bytes t = t.owned_nodes * Sim.Units.page_size
