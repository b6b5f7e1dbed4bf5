module Frame = Physmem.Frame

type stats = { collapsed : int; pages_copied : int; bytes_copied : int }

let pages_per_huge = Sim.Units.huge_2m / Sim.Units.page_size

(* Collapse one 2 MiB-aligned window of the process. Returns pages
   copied, or None if the window is not collapsible. *)
let try_collapse k (proc : Proc.t) ~window ~prot ~min_pages =
  let aspace = proc.Proc.aspace in
  let table = Address_space.page_table aspace in
  let mem = Kernel.mem k in
  let meta = Kernel.page_meta k in
  let clock = Kernel.clock k in
  (* Census: the window must hold only base pages, enough of them, and
     no swapped-out page, which the zeroed gaps would overwrite. *)
  let present = ref [] in
  let blocked = ref false in
  for i = 0 to pages_per_huge - 1 do
    let va = window + (i * Sim.Units.page_size) in
    match Hw.Page_table.lookup table ~va with
    | Some (_, leaf) when leaf.Hw.Page_table.size = Hw.Page_size.Small ->
      present := (va, leaf) :: !present
    | Some _ -> blocked := true
    | None -> if Swap.contains (Kernel.swap k) ~key:(proc.Proc.pid, va) then blocked := true
  done;
  let present = List.rev !present in
  if !blocked || List.length present < min_pages || present = [] then None
  else
    match Alloc.Buddy.alloc (Kernel.buddy k) ~order:9 with
    | None -> None (* no 2 MiB of contiguous physical memory: the paper's
                      fragmentation problem in action *)
    | Some block ->
      (* Copy every present page into its slot; zero the gaps. *)
      List.iter
        (fun (va, (leaf : Hw.Page_table.leaf)) ->
          let i = (va - window) / Sim.Units.page_size in
          Physmem.Phys_mem.copy mem ~src:(Frame.to_addr leaf.Hw.Page_table.pfn) ~dst:(Frame.to_addr (block + i))
            ~len:Sim.Units.page_size)
        present;
      let present_idx = List.map (fun (va, _) -> (va - window) / Sim.Units.page_size) present in
      for i = 0 to pages_per_huge - 1 do
        if not (List.mem i present_idx) then Physmem.Phys_mem.zero_frame mem (block + i)
      done;
      (* Tear down the base PTEs and free the scattered frames no other
         address space maps. *)
      let dirty = List.exists (fun (_, (l : Hw.Page_table.leaf)) -> l.Hw.Page_table.dirty) present
      in
      List.iter
        (fun (va, leaf) ->
          Page_meta.unmap meta ~zero:(Kernel.zero_engine k) table ~va leaf ~owned:true)
        present;
      Hw.Mmu.invalidate_range (Address_space.mmu aspace) ~va:window ~len:Sim.Units.huge_2m;
      (* One huge leaf replaces them all; it holds their data, dirty bits
         included. *)
      Page_meta.map meta aspace ~va:window ~pfn:block ~prot ~size:Hw.Page_size.Huge_2m ~dirty
        ~anon:true;
      Page_meta.set_flag meta block Page_meta.Head true;
      Sim.Clock.charge clock Sim.Cost_model.tlb_shootdown;
      Sim.Stats.incr (Kernel.stats k) "thp_collapse";
      Some (List.length present)

let scan_process k (proc : Proc.t) ?(threshold = 0.9) () =
  let min_pages = max 1 (int_of_float (threshold *. float_of_int pages_per_huge)) in
  let collapsed = ref 0 and copied = ref 0 in
  let windows = ref [] in
  Address_space.iter_vmas proc.Proc.aspace (fun vma ->
      match vma.Vma.backing with
      | Vma.Anon ->
        let first = Sim.Units.round_up vma.Vma.start ~align:Sim.Units.huge_2m in
        let last = Sim.Units.round_down (Vma.end_ vma) ~align:Sim.Units.huge_2m in
        let w = ref first in
        while !w + Sim.Units.huge_2m <= last do
          windows := (!w, vma.Vma.prot) :: !windows;
          w := !w + Sim.Units.huge_2m
        done
      | Vma.File _ -> ());
  List.iter
    (fun (window, prot) ->
      match try_collapse k proc ~window ~prot ~min_pages with
      | Some n ->
        incr collapsed;
        copied := !copied + n
      | None -> ())
    (List.rev !windows);
  { collapsed = !collapsed; pages_copied = !copied; bytes_copied = !copied * Sim.Units.page_size }

let collapse_window k (proc : Proc.t) ~va =
  let window = Sim.Units.round_down va ~align:Sim.Units.huge_2m in
  let prot =
    match Address_space.find_vma proc.Proc.aspace ~va with
    | Some vma -> vma.Vma.prot
    | None -> invalid_arg "Thp.collapse_window: no VMA at address"
  in
  match try_collapse k proc ~window ~prot ~min_pages:1 with Some _ -> true | None -> false

let split_huge k (proc : Proc.t) ~va =
  let aspace = proc.Proc.aspace in
  let table = Address_space.page_table aspace in
  match Hw.Page_table.lookup table ~va with
  | Some (_, ({ Hw.Page_table.pfn = block; prot; dirty; _ } as leaf))
    when leaf.Hw.Page_table.size = Hw.Page_size.Huge_2m ->
    let window = Sim.Units.round_down va ~align:Sim.Units.huge_2m in
    let meta = Kernel.page_meta k in
    (* The block is being split, not freed: it keeps its frames. *)
    Page_meta.unmap meta ~zero:(Kernel.zero_engine k) table ~va:window leaf ~owned:false;
    Hw.Mmu.invalidate_page (Address_space.mmu aspace) ~va:window;
    (* Remap the same physical block as 512 base pages, each back on
       the reclaim lists. *)
    for i = 0 to pages_per_huge - 1 do
      Page_meta.map meta aspace
        ~va:(window + (i * Sim.Units.page_size))
        ~pfn:(block + i) ~prot ~size:Hw.Page_size.Small ~dirty ~anon:true
    done;
    Page_meta.set_flag meta block Page_meta.Head false;
    Sim.Stats.incr (Kernel.stats k) "thp_split";
    true
  | Some _ | None -> false
