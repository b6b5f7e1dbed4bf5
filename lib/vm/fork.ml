let page = Sim.Units.page_size

let clone_vma (v : Vma.t) =
  let copy = Vma.make ~start:v.Vma.start ~len:v.Vma.len ~prot:v.Vma.prot ~backing:v.Vma.backing ~share:v.Vma.share in
  copy.Vma.populated <- v.Vma.populated;
  copy

let fork k (parent : Proc.t) =
  Kernel.syscall k parent "fork" @@ fun () ->
  let child = Kernel.create_process k () in
  let p_as = parent.Proc.aspace and c_as = child.Proc.aspace in
  let p_table = Address_space.page_table p_as in
  let meta = Kernel.page_meta k in
  let clock = Kernel.clock k in
  Address_space.set_mmap_cursor c_as (Address_space.mmap_cursor p_as);
  let vmas = ref [] in
  Address_space.iter_vmas p_as (fun v -> vmas := v :: !vmas);
  List.iter
    (fun (v : Vma.t) ->
      Address_space.insert_vma c_as (clone_vma v);
      (match v.Vma.backing with
      | Vma.File { fs; ino; _ } -> Fs.Memfs.open_file fs ino
      | Vma.Anon -> ());
      let anon = v.Vma.backing = Vma.Anon in
      for i = 0 to (v.Vma.len / page) - 1 do
        let va = v.Vma.start + (i * page) in
        (* Swapped-out private pages come back before sharing (we do not
           model shared swap slots). *)
        if
          anon
          && Hw.Page_table.lookup p_table ~va = None
          && Swap.contains (Kernel.swap k) ~pid:parent.Proc.pid ~va
        then Kernel.access k parent ~va ~write:false;
        (* Huge anonymous leaves split first, as in Linux. *)
        (match Hw.Page_table.lookup p_table ~va with
        | Some (_, leaf)
          when leaf.Hw.Page_table.size <> Hw.Page_size.Small && anon ->
          ignore (Thp.split_huge k parent ~va)
        | _ -> ());
        match Hw.Page_table.lookup p_table ~va with
        | None -> ()
        | Some (_, ({ Hw.Page_table.pfn; dirty; _ } as leaf)) -> (
          (* The child's leaf takes the parent's dirty bit: its contents
             are just as unsaved. *)
          match v.Vma.share with
          | Vma.Shared ->
            (* Shared mapping: alias the frame at full protection. *)
            Page_meta.map meta c_as ~va ~pfn ~prot:leaf.Hw.Page_table.prot
              ~size:Hw.Page_size.Small ~dirty ~anon
          | Vma.Private ->
            (* Private: write-protect both sides; first write CoWs. *)
            let ro = { leaf.Hw.Page_table.prot with Hw.Prot.write = false } in
            if leaf.Hw.Page_table.prot.Hw.Prot.write then begin
              leaf.Hw.Page_table.prot <- ro;
              Sim.Clock.charge clock Sim.Cost_model.pte_write;
              Hw.Mmu.invalidate_page (Address_space.mmu p_as) ~va
            end;
            Page_meta.map meta c_as ~va ~pfn ~prot:ro ~size:Hw.Page_size.Small ~dirty ~anon)
      done)
    (List.rev !vmas);
  Sim.Stats.incr (Kernel.stats k) "fork";
  child

let cow_shared_pages _k (proc : Proc.t) =
  let aspace = proc.Proc.aspace in
  let table = Address_space.page_table aspace in
  let n = ref 0 in
  Hw.Page_table.iter_leaves table (fun va leaf ->
      if not leaf.Hw.Page_table.prot.Hw.Prot.write then
        match Address_space.find_vma aspace ~va with
        | Some { Vma.prot = { Hw.Prot.write = true; _ }; share = Vma.Private; _ } -> incr n
        | _ -> ());
  !n
