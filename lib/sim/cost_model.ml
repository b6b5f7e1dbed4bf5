let freq_ghz = 2.0
let syscall = 1600
let vma_setup = 12800
let pte_write = 520
let pt_node_alloc = 400
let fault_trap = 2400
let mem_ref_dram = 80
let mem_ref_nvm_read = 120
let mem_ref_nvm_write = 400
let mem_ref_dram_remote = 130
let mem_ref_nvm_read_remote = 190
let mem_ref_nvm_write_remote = 640
let cache_ref = 4
let tlb_hit = 1
let tlb_shootdown = 400
let ipi = 4000
let zero_byte_num = 1
let zero_byte_den = 4
let zero_cache_pop = 20
let frame_alloc = 200
let struct_page_init = 120
let fs_lookup = 2400
let fs_extent_op = 800
let range_table_op = 600
let scheduler = 3000
let copy_byte_num = 1
let copy_byte_den = 8

(* Not in [to_json]: a new provenance key would make every committed
   baseline incomparable. *)
let sfence = 100
let bulk_erase = 2000
let buddy_split_merge = 40
let slab_op = 30
let log_alloc_op = 20
let struct_page_update = 8
let reclaim_examine = 50
let swap_device_op = 20_000
let erase_enqueue = 60
let fs_extent_resolve = 60
let fs_attr_write = 50
let fs_recovery_scan = 200
let tcmalloc_thread_cache_op = 5
let tcmalloc_central_lock = 120

let zero_cost ~bytes = bytes * zero_byte_num / zero_byte_den
let copy_cost ~bytes = bytes * copy_byte_num / copy_byte_den
let bitmap_scan_cost ~frames = 2 + (frames / 64)

let to_json () =
  Json.Obj
    (("freq_ghz", Json.Float freq_ghz)
    :: List.map
         (fun (k, v) -> (k, Json.Int v))
         [
           ("syscall", syscall);
           ("vma_setup", vma_setup);
           ("pte_write", pte_write);
           ("pt_node_alloc", pt_node_alloc);
           ("fault_trap", fault_trap);
           ("mem_ref_dram", mem_ref_dram);
           ("mem_ref_nvm_read", mem_ref_nvm_read);
           ("mem_ref_nvm_write", mem_ref_nvm_write);
           ("mem_ref_dram_remote", mem_ref_dram_remote);
           ("mem_ref_nvm_read_remote", mem_ref_nvm_read_remote);
           ("mem_ref_nvm_write_remote", mem_ref_nvm_write_remote);
           ("cache_ref", cache_ref);
           ("tlb_hit", tlb_hit);
           ("tlb_shootdown", tlb_shootdown);
           ("ipi", ipi);
           ("zero_byte_num", zero_byte_num);
           ("zero_byte_den", zero_byte_den);
           ("zero_cache_pop", zero_cache_pop);
           ("frame_alloc", frame_alloc);
           ("struct_page_init", struct_page_init);
           ("fs_lookup", fs_lookup);
           ("fs_extent_op", fs_extent_op);
           ("range_table_op", range_table_op);
           ("scheduler", scheduler);
           ("copy_byte_num", copy_byte_num);
           ("copy_byte_den", copy_byte_den);
         ])

let pp ppf () =
  Format.fprintf ppf
    "cost model: %.1f GHz, syscall=%d vma=%d pte=%d fault=%d dram=%d nvm(r/w)=%d/%d shootdown=%d"
    freq_ghz syscall vma_setup pte_write fault_trap mem_ref_dram mem_ref_nvm_read
    mem_ref_nvm_write tlb_shootdown
