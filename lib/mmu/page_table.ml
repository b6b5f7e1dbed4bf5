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
  free_frame : Frame.t -> unit;
  root : node;
  mutable owned_nodes : int;
}

let fanout = 512
let bits_per_level = 9

let charge t c = Sim.Clock.charge t.clock c

let new_node t =
  let frame = t.alloc_frame () in
  charge t Sim.Cost_model.pt_node_alloc;
  Sim.Stats.incr t.stats "pt_node_alloc";
  t.owned_nodes <- t.owned_nodes + 1;
  { frame; entries = Array.make fanout Empty; live = 0; refs = 1 }

let create ~clock ~stats ~levels ~alloc_frame ~free_frame =
  if levels <> 4 && levels <> 5 then invalid_arg "Page_table.create: levels must be 4 or 5";
  let frame = alloc_frame () in
  Sim.Clock.charge clock Sim.Cost_model.pt_node_alloc;
  let root = { frame; entries = Array.make fanout Empty; live = 0; refs = 1 } in
  { clock; stats; levels; alloc_frame; free_frame; root; owned_nodes = 1 }

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

(* A node of no table: what [descend] returns when the path is blocked. *)
let no_node = { frame = -1; entries = [||]; live = 0; refs = 0 }

(* Walk to the node at [depth] along [va], creating missing interior
   nodes when [create_path] is set; [no_node] if the path is blocked. *)
let rec descend t node ~cur ~depth ~va ~create_path =
  if cur = depth then node
  else
    let i = index t ~depth:cur va in
    match node.entries.(i) with
    | Table child -> descend t child ~cur:(cur + 1) ~depth ~va ~create_path
    | Leaf _ -> no_node
    | Empty ->
      if not create_path then no_node
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
  let node = descend t t.root ~cur:0 ~depth ~va ~create_path:true in
  if node == no_node then invalid_arg "Page_table.map_page: blocked by an existing mapping";
  let i = index t ~depth va in
  match node.entries.(i) with
  | Empty ->
    node.entries.(i) <- Leaf { pfn; prot; accessed = false; dirty = false; size };
    node.live <- node.live + 1;
    charge t Sim.Cost_model.pte_write;
    Sim.Stats.incr t.stats "pte_write"
  | Leaf _ -> invalid_arg "Page_table.map_page: already mapped"
  | Table _ -> invalid_arg "Page_table.map_page: occupied by a page-table subtree"

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

let free_node t node =
  t.owned_nodes <- t.owned_nodes - 1;
  Sim.Stats.incr t.stats "pt_node_free";
  t.free_frame node.frame

(* A node other tables still reference only loses this table's pointer;
   the rest of the tree goes back through [free_frame], children first. *)
let release t f =
  let rec drop node =
    if node.refs > 1 then node.refs <- node.refs - 1
    else begin
      Array.iter (function Table c -> drop c | Leaf l -> f l | Empty -> ()) node.entries;
      free_node t node
    end
  in
  drop t.root

(* Free [child], the node under entry [i] of [node], if a clear below
   emptied it — never a node other tables still reference: an unmap
   inside a shared subtree is visible to every sharer, as shared
   mappings need. *)
let prune t node i child =
  if child.live = 0 && child.refs = 1 then begin
    node.entries.(i) <- Empty;
    node.live <- node.live - 1;
    free_node t child
  end

(* Empty the leaf along [va], then prune on the way back up: no path is
   built, and nothing changes if no leaf is there. *)
let rec unmap_in t node ~depth va =
  let i = index t ~depth va in
  match node.entries.(i) with
  | Leaf _ ->
    charge t Sim.Cost_model.pte_write;
    Sim.Stats.incr t.stats "pte_clear";
    node.entries.(i) <- Empty;
    node.live <- node.live - 1
  | Table child ->
    unmap_in t child ~depth:(depth + 1) va;
    prune t node i child
  | Empty -> invalid_arg "Page_table.unmap_page: not mapped"

let unmap_page t ~va =
  check_va t va;
  unmap_in t t.root ~depth:0 va

let ensure_node t ~va ~depth =
  check_va t va;
  if depth < 0 || depth >= t.levels then invalid_arg "Page_table.ensure_node: bad depth";
  if descend t t.root ~cur:0 ~depth ~va ~create_path:true == no_node then
    invalid_arg "Page_table.ensure_node: blocked by an existing leaf"

let no_leaf = { pfn = -1; prot = Prot.none; accessed = false; dirty = false; size = Page_size.Small }

let rec find_in t node ~depth va =
  match node.entries.(index t ~depth va) with
  | Empty -> no_leaf
  | Leaf leaf -> leaf
  | Table child -> find_in t child ~depth:(depth + 1) va

let find t ~va =
  check_va t va;
  find_in t t.root ~depth:0 va

let phys_addr (leaf : leaf) ~va = Frame.to_addr leaf.pfn + (va land (Page_size.bytes leaf.size - 1))

let lookup t ~va = match find t ~va with l when l == no_leaf -> None | l -> Some (phys_addr l ~va, l)

let unmap_range t ~va ~len =
  check_va t va;
  if len <= 0 then 0
  else begin
    check_va t (va + len - 1);
    let count = ref 0 in
    let cursor = ref va in
    while !cursor < va + len do
      let leaf = find t ~va:!cursor in
      if leaf == no_leaf then cursor := !cursor + Sim.Units.page_size
      else begin
        let span = Page_size.bytes leaf.size in
        let base = Sim.Units.round_down !cursor ~align:span in
        unmap_page t ~va:base;
        incr count;
        cursor := base + span
      end
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
      let leaf = find t ~va:!cursor in
      if leaf == no_leaf then cursor := !cursor + Sim.Units.page_size
      else begin
        leaf.prot <- prot;
        charge t Sim.Cost_model.pte_write;
        Sim.Stats.incr t.stats "pte_protect";
        incr count;
        let span = Page_size.bytes leaf.size in
        cursor := Sim.Units.round_down !cursor ~align:span + span
      end
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
  let src_node = node_at src ~va:src_va ~depth in
  if src_node == no_node then invalid_arg "Page_table.share_subtree: source subtree missing";
  let parent = descend dst dst.root ~cur:0 ~depth:(depth - 1) ~va:dst_va ~create_path:true in
  if parent == no_node then invalid_arg "Page_table.share_subtree: destination blocked";
  let i = index dst ~depth:(depth - 1) dst_va in
  match parent.entries.(i) with
  | Empty ->
    parent.entries.(i) <- Table src_node;
    parent.live <- parent.live + 1;
    src_node.refs <- src_node.refs + 1;
    Sim.Clock.charge dst.clock Sim.Cost_model.pte_write;
    Sim.Stats.incr dst.stats "pt_subtree_share"
  | _ -> invalid_arg "Page_table.share_subtree: destination slot occupied"

(* Drop the grafted pointer in the node at depth [at] along [va], then
   prune on the way back up, as [unmap_in] does. *)
let rec unshare_in t node ~depth va ~at =
  let i = index t ~depth va in
  match node.entries.(i) with
  | Table child when depth < at ->
    unshare_in t child ~depth:(depth + 1) va ~at;
    prune t node i child
  | _ when depth < at -> invalid_arg "Page_table.unshare: no such entry"
  | Table child when child.refs > 1 ->
    child.refs <- child.refs - 1;
    node.entries.(i) <- Empty;
    node.live <- node.live - 1
  | Table _ -> invalid_arg "Page_table.unshare: subtree is not shared"
  | Empty | Leaf _ -> invalid_arg "Page_table.unshare: no subtree at this entry"

let unshare t ~va ~depth =
  if depth <= 0 || depth >= t.levels then invalid_arg "Page_table.unshare: bad depth";
  unshare_in t t.root ~depth:0 va ~at:(depth - 1);
  charge t Sim.Cost_model.pte_write;
  Sim.Stats.incr t.stats "pt_subtree_unshare"

let is_shared_at t ~va ~depth =
  depth > 0 && depth < t.levels
  &&
  let parent = descend t t.root ~cur:0 ~depth:(depth - 1) ~va ~create_path:false in
  parent != no_node
  &&
  match parent.entries.(index t ~depth:(depth - 1) va) with
  | Table child -> child.refs > 1
  | Empty | Leaf _ -> false

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
