type t = {
  freq_ghz : float;
  syscall : int;
  vma_setup : int;
  pte_write : int;
  pt_node_alloc : int;
  fault_trap : int;
  mem_ref_dram : int;
  mem_ref_nvm_read : int;
  mem_ref_nvm_write : int;
  mem_ref_dram_remote : int;
  mem_ref_nvm_read_remote : int;
  mem_ref_nvm_write_remote : int;
  cache_ref : int;
  tlb_hit : int;
  tlb_shootdown : int;
  ipi : int;
  zero_byte_num : int;
  zero_byte_den : int;
  zero_cache_pop : int;
  frame_alloc : int;
  struct_page_init : int;
  fs_lookup : int;
  fs_extent_op : int;
  range_table_op : int;
  scheduler : int;
  copy_byte_num : int;
  copy_byte_den : int;
}

let default =
  {
    freq_ghz = 2.0;
    syscall = 1600;
    vma_setup = 12800;
    pte_write = 520;
    pt_node_alloc = 400;
    fault_trap = 2400;
    mem_ref_dram = 80;
    mem_ref_nvm_read = 120;
    mem_ref_nvm_write = 400;
    mem_ref_dram_remote = 130;
    mem_ref_nvm_read_remote = 190;
    mem_ref_nvm_write_remote = 640;
    cache_ref = 4;
    tlb_hit = 1;
    tlb_shootdown = 400;
    ipi = 4000;
    zero_byte_num = 1;
    zero_byte_den = 4;
    zero_cache_pop = 20;
    frame_alloc = 200;
    struct_page_init = 120;
    fs_lookup = 2400;
    fs_extent_op = 800;
    range_table_op = 600;
    scheduler = 3000;
    copy_byte_num = 1;
    copy_byte_den = 8;
  }

(* Local invalidation only. Remote-core invalidation is not an analytic
   multiplier any more: {!Hw.Mmu} sends explicit IPIs (charged at [ipi]
   each) to exactly the cores that may cache the address space, so IPI
   traffic is measured, not extrapolated — a purely local flush (context
   switch, single-core machine) costs exactly [tlb_shootdown]. *)
let shootdown_cost t = t.tlb_shootdown

let cycles_to_us t c = float_of_int c /. (t.freq_ghz *. 1000.0)
let cycles_to_ms t c = cycles_to_us t c /. 1000.0
let zero_cost t ~bytes = bytes * t.zero_byte_num / t.zero_byte_den
let copy_cost t ~bytes = bytes * t.copy_byte_num / t.copy_byte_den

let to_json t =
  Json.Obj
    [
      ("freq_ghz", Json.Float t.freq_ghz);
      ("syscall", Json.Int t.syscall);
      ("vma_setup", Json.Int t.vma_setup);
      ("pte_write", Json.Int t.pte_write);
      ("pt_node_alloc", Json.Int t.pt_node_alloc);
      ("fault_trap", Json.Int t.fault_trap);
      ("mem_ref_dram", Json.Int t.mem_ref_dram);
      ("mem_ref_nvm_read", Json.Int t.mem_ref_nvm_read);
      ("mem_ref_nvm_write", Json.Int t.mem_ref_nvm_write);
      ("mem_ref_dram_remote", Json.Int t.mem_ref_dram_remote);
      ("mem_ref_nvm_read_remote", Json.Int t.mem_ref_nvm_read_remote);
      ("mem_ref_nvm_write_remote", Json.Int t.mem_ref_nvm_write_remote);
      ("cache_ref", Json.Int t.cache_ref);
      ("tlb_hit", Json.Int t.tlb_hit);
      ("tlb_shootdown", Json.Int t.tlb_shootdown);
      ("ipi", Json.Int t.ipi);
      ("zero_byte_num", Json.Int t.zero_byte_num);
      ("zero_byte_den", Json.Int t.zero_byte_den);
      ("zero_cache_pop", Json.Int t.zero_cache_pop);
      ("frame_alloc", Json.Int t.frame_alloc);
      ("struct_page_init", Json.Int t.struct_page_init);
      ("fs_lookup", Json.Int t.fs_lookup);
      ("fs_extent_op", Json.Int t.fs_extent_op);
      ("range_table_op", Json.Int t.range_table_op);
      ("scheduler", Json.Int t.scheduler);
      ("copy_byte_num", Json.Int t.copy_byte_num);
      ("copy_byte_den", Json.Int t.copy_byte_den);
    ]

let pp ppf t =
  Format.fprintf ppf
    "cost model: %.1f GHz, syscall=%d vma=%d pte=%d fault=%d dram=%d nvm(r/w)=%d/%d shootdown=%d"
    t.freq_ghz t.syscall t.vma_setup t.pte_write t.fault_trap t.mem_ref_dram
    t.mem_ref_nvm_read t.mem_ref_nvm_write t.tlb_shootdown
