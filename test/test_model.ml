(* Model-based randomized tests: long random operation sequences checked
   against simple reference models, plus crash injection at random
   points. These are the heaviest correctness artillery in the suite. *)
open Helpers
module K = Os.Kernel
module F = O1mem.Fom

(* --- FS churn against a reference model, with crash injection ------- *)

type file_model = { mutable size : int; mutable persistent : bool; mutable stamp : char }

let fs_random_ops ~seed ~ops ~crash_at =
  let mem = mk_mem ~dram:(Sim.Units.mib 8) ~nvm:(Sim.Units.mib 32) () in
  let fs =
    Fs.Memfs.create ~mem ~first:(Physmem.Phys_mem.dram_frames mem) ~count:8192
      ~mode:Fs.Memfs.Pmfs ()
  in
  let rng = Sim.Rng.create ~seed in
  let model : (string, file_model) Hashtbl.t = Hashtbl.create 16 in
  let live_paths () = Hashtbl.fold (fun p _ acc -> p :: acc) model [] |> List.sort compare in
  let fresh = ref 0 in
  let crashed = ref false in
  for step = 0 to ops - 1 do
    if step = crash_at then begin
      Physmem.Phys_mem.crash mem;
      Fs.Memfs.crash fs;
      ignore (Fs.Memfs.recover fs);
      crashed := true;
      (* Volatile files are gone from the model too. *)
      let doomed =
        Hashtbl.fold (fun p m acc -> if not m.persistent then p :: acc else acc) model []
      in
      List.iter (Hashtbl.remove model) doomed
    end;
    match Sim.Rng.int rng 6 with
    | 0 ->
      (* create *)
      let path = Printf.sprintf "/f%d" !fresh in
      incr fresh;
      let persistent = Sim.Rng.bool rng in
      ignore
        (Fs.Memfs.create_file fs path
           ~persistence:(if persistent then Fs.Inode.Persistent else Fs.Inode.Volatile));
      Hashtbl.replace model path { size = 0; persistent; stamp = '\000' }
    | 1 -> (
      (* extend + stamp *)
      match live_paths () with
      | [] -> ()
      | paths ->
        let path = List.nth paths (Sim.Rng.int rng (List.length paths)) in
        let m = Hashtbl.find model path in
        let ino = Option.get (Fs.Memfs.lookup fs path) in
        let add = Sim.Units.page_size * Sim.Rng.int_in rng ~lo:1 ~hi:8 in
        (try
           Fs.Memfs.extend fs ino ~bytes_wanted:add;
           m.size <- m.size + add;
           let stamp = Char.chr (Char.code 'a' + Sim.Rng.int rng 26) in
           Fs.Memfs.write_file fs ino ~off:0 (String.make 16 stamp);
           m.stamp <- stamp
         with Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> () (* acceptable *)))
    | 2 -> (
      (* unlink *)
      match live_paths () with
      | [] -> ()
      | paths ->
        let path = List.nth paths (Sim.Rng.int rng (List.length paths)) in
        Fs.Memfs.unlink fs path;
        Hashtbl.remove model path)
    | 3 -> (
      (* toggle persistence *)
      match live_paths () with
      | [] -> ()
      | paths ->
        let path = List.nth paths (Sim.Rng.int rng (List.length paths)) in
        let m = Hashtbl.find model path in
        let ino = Option.get (Fs.Memfs.lookup fs path) in
        m.persistent <- not m.persistent;
        Fs.Memfs.set_persistence fs ino
          (if m.persistent then Fs.Inode.Persistent else Fs.Inode.Volatile))
    | 4 -> (
      (* truncate *)
      match live_paths () with
      | [] -> ()
      | paths ->
        let path = List.nth paths (Sim.Rng.int rng (List.length paths)) in
        let m = Hashtbl.find model path in
        if m.size > Sim.Units.page_size then begin
          let ino = Option.get (Fs.Memfs.lookup fs path) in
          let new_size = Sim.Units.page_size in
          Fs.Memfs.truncate fs ino ~bytes:new_size;
          m.size <- new_size
        end)
    | _ -> (
      (* verify a random live file right now *)
      match live_paths () with
      | [] -> ()
      | paths ->
        let path = List.nth paths (Sim.Rng.int rng (List.length paths)) in
        let m = Hashtbl.find model path in
        let ino = Option.get (Fs.Memfs.lookup fs path) in
        if (Fs.Memfs.inode fs ino).Fs.Inode.size <> m.size then
          Alcotest.failf "size mismatch for %s" path)
  done;
  (* Final coherence checks. *)
  Hashtbl.iter
    (fun path m ->
      match Fs.Memfs.lookup fs path with
      | None -> Alcotest.failf "model file %s missing from FS" path
      | Some ino ->
        let node = Fs.Memfs.inode fs ino in
        check_int (path ^ " size") m.size node.Fs.Inode.size;
        if m.stamp <> '\000' && m.size >= 16 then
          check_string (path ^ " contents") (String.make 16 m.stamp)
            (Bytes.to_string (Fs.Memfs.read_file fs ino ~off:0 ~len:16)))
    model;
  (* FS-side files must all be in the model. *)
  Fs.Memfs.iter_files fs (fun path _ ->
      if not (Hashtbl.mem model path) then Alcotest.failf "unexpected FS file %s" path);
  (* Space accounting: used = sum of file pages. *)
  let model_bytes =
    Hashtbl.fold (fun _ m acc -> acc + Sim.Units.round_up m.size ~align:Sim.Units.page_size) model 0
  in
  check_int "space accounting" model_bytes (Fs.Memfs.used_bytes fs);
  (* Extent disjointness across all files. *)
  let seen = Hashtbl.create 256 in
  Fs.Memfs.iter_files fs (fun path node ->
      Fs.Extent_tree.iter (Fs.Inode.extents node) (fun e ->
          for pfn = e.Fs.Extent.start to e.Fs.Extent.start + e.Fs.Extent.count - 1 do
            if Hashtbl.mem seen pfn then Alcotest.failf "frame %d owned twice (%s)" pfn path;
            Hashtbl.replace seen pfn ()
          done));
  !crashed

let test_fs_model_with_crashes () =
  for seed = 1 to 10 do
    let crashed = fs_random_ops ~seed ~ops:120 ~crash_at:(40 + (seed * 3)) in
    check_bool "crash actually injected" true crashed
  done

let test_fs_model_no_crash () =
  for seed = 11 to 16 do
    ignore (fs_random_ops ~seed ~ops:150 ~crash_at:max_int)
  done

(* --- FOM region lifecycle against a model --------------------------- *)

let test_fom_model () =
  for seed = 1 to 6 do
    let kernel, fom = mk_fom () in
    let proc = K.create_process kernel ~range_translations:true () in
    let rng = Sim.Rng.create ~seed in
    let live : (int, F.region) Hashtbl.t = Hashtbl.create 16 in
    let freed : (int, F.region) Hashtbl.t = Hashtbl.create 16 in
    let next_id = ref 0 in
    for _ = 0 to 80 do
      match Sim.Rng.int rng 4 with
      | 0 ->
        (* alloc with a random strategy *)
        let strategy =
          match Sim.Rng.int rng 4 with
          | 0 -> F.Per_page
          | 1 -> F.Huge_pages
          | 2 -> F.Shared_subtree
          | _ -> F.Range_translation
        in
        let len = Sim.Units.page_size * Sim.Rng.int_in rng ~lo:1 ~hi:64 in
        (try
           let r = F.alloc fom proc ~strategy ~len ~prot:Hw.Prot.rw () in
           Hashtbl.replace live !next_id r;
           incr next_id
         with Sim.Errno.Error ((Sim.Errno.ENOSPC | Sim.Errno.ENOMEM), _) -> ())
      | 1 -> (
        (* free a random live region *)
        let ids = Hashtbl.fold (fun id _ acc -> id :: acc) live [] in
        match ids with
        | [] -> ()
        | _ ->
          let id = List.nth ids (Sim.Rng.int rng (List.length ids)) in
          let r = Hashtbl.find live id in
          F.free fom proc r;
          Hashtbl.remove live id;
          Hashtbl.replace freed id r)
      | 2 -> (
        (* every live region must translate at a random in-bounds offset *)
        let ids = Hashtbl.fold (fun id _ acc -> id :: acc) live [] in
        match ids with
        | [] -> ()
        | _ ->
          let id = List.nth ids (Sim.Rng.int rng (List.length ids)) in
          let r = Hashtbl.find live id in
          let off = Sim.Rng.int rng r.F.len in
          F.access fom proc ~va:(r.F.va + off) ~write:(Sim.Rng.bool rng))
      | _ -> (
        (* freed regions must NOT translate *)
        let ids = Hashtbl.fold (fun id _ acc -> id :: acc) freed [] in
        match ids with
        | [] -> ()
        | _ ->
          let id = List.nth ids (Sim.Rng.int rng (List.length ids)) in
          let r = Hashtbl.find freed id in
          match F.access fom proc ~va:r.F.va ~write:false with
          | () -> Alcotest.fail "freed region still translates"
          | exception Os.Fault.Segfault _ -> ())
    done;
    (* Drain: free everything and confirm full space recovery. *)
    let fs = F.fs fom in
    Hashtbl.iter (fun _ r -> F.free fom proc r) live;
    let used = Fs.Memfs.used_bytes fs in
    check_int "all space recovered" 0 used
  done

(* --- Address-translation agreement under random map churn ----------- *)

let test_translation_model () =
  for seed = 21 to 26 do
    let pt, _, _ = mk_page_table () in
    let rng = Sim.Rng.create ~seed in
    let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
    (* VPNs in a small arena so map/unmap collide frequently. *)
    for _ = 0 to 400 do
      let vpn = Sim.Rng.int rng 128 in
      let va = vpn * Sim.Units.page_size in
      match Sim.Rng.int rng 3 with
      | 0 ->
        if not (Hashtbl.mem model vpn) then begin
          let pfn = 1 + Sim.Rng.int rng 10_000 in
          Hw.Page_table.map_page pt ~va ~pfn ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
          Hashtbl.replace model vpn pfn
        end
      | 1 ->
        if Hashtbl.mem model vpn then begin
          Hw.Page_table.unmap_page pt ~va;
          Hashtbl.remove model vpn
        end
      | _ -> (
        match (Hw.Page_table.lookup pt ~va, Hashtbl.find_opt model vpn) with
        | Some (pa, _), Some pfn -> check_int "translation agrees" (pfn * 4096) pa
        | None, None -> ()
        | Some _, None -> Alcotest.fail "table maps a page the model freed"
        | None, Some _ -> Alcotest.fail "table lost a mapping")
    done;
    check_int "leaf count agrees" (Hashtbl.length model) (Hw.Page_table.pte_count pt)
  done

(* --- copy_region (the CoW substitute) ------------------------------- *)

let test_copy_region () =
  let kernel, fom = mk_fom () in
  let proc = K.create_process kernel () in
  let fs = F.fs fom in
  let src = F.alloc fom proc ~name:"/orig" ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw () in
  Fs.Memfs.write_file fs src.F.ino ~off:(Sim.Units.kib 30) "original-data";
  let dst = F.copy_region fom proc src () in
  check_bool "separate file" true (dst.F.ino <> src.F.ino);
  check_bool "separate mapping" true (dst.F.va <> src.F.va);
  check_string "contents duplicated" "original-data"
    (Bytes.to_string (Fs.Memfs.read_file fs dst.F.ino ~off:(Sim.Units.kib 30) ~len:13));
  (* Divergence: writing the copy leaves the original untouched. *)
  Fs.Memfs.write_file fs dst.F.ino ~off:(Sim.Units.kib 30) "MUTATED-!data";
  check_string "original intact" "original-data"
    (Bytes.to_string (Fs.Memfs.read_file fs src.F.ino ~off:(Sim.Units.kib 30) ~len:13));
  (* Both translate. *)
  F.access fom proc ~va:src.F.va ~write:true;
  F.access fom proc ~va:dst.F.va ~write:true

let test_copy_region_cost_is_upfront () =
  let kernel, fom = mk_fom () in
  let proc = K.create_process kernel () in
  let clock = K.clock kernel in
  let cost len =
    let src = F.alloc fom proc ~len ~prot:Hw.Prot.rw () in
    let before = Sim.Clock.now clock in
    let dst = F.copy_region fom proc src () in
    let c = Sim.Clock.elapsed clock ~since:before in
    F.free fom proc src;
    F.free fom proc dst;
    c
  in
  let c1 = cost (Sim.Units.mib 1) in
  let c4 = cost (Sim.Units.mib 4) in
  check_bool "copy cost linear (it is a copy)" true (c4 > 3 * c1 && c4 < 6 * c1)

(* --- Interplay: uswap survives a crash of its backing file's machine -- *)

let test_uswap_after_crash () =
  let kernel, fom = mk_fom () in
  let proc = K.create_process kernel () in
  let fs = F.fs fom in
  let ino = Fs.Memfs.create_file fs "/uswap-backing" ~persistence:Fs.Inode.Persistent in
  Fs.Memfs.extend fs ino ~bytes_wanted:(Sim.Units.kib 32);
  Fs.Memfs.write_file fs ino ~off:(2 * Sim.Units.page_size) "persist";
  (* Crash before any window exists: the backing file must survive. *)
  ignore (O1mem.Persistence.crash_and_recover fom);
  let proc2 = K.create_process kernel () in
  ignore proc;
  let u = O1mem.Uswap.create fom proc2 ~backing_path:"/uswap-backing" ~window_pages:2 in
  check_bool "data readable through a fresh window after reboot" true
    (O1mem.Uswap.read_byte u ~off:(2 * Sim.Units.page_size) = 'p')

(* --- Interplay: fork a process that used THP ------------------------- *)

let test_fork_after_thp () =
  let k = mk_kernel () in
  let parent = K.create_process k () in
  let va = K.mmap_anon k parent ~len:(Sim.Units.mib 4) ~prot:Hw.Prot.rw ~populate:true in
  ignore (Os.Thp.scan_process k parent ());
  (* fork must split huge anon leaves before CoW-sharing them. *)
  let child = Os.Fork.fork k parent in
  let c_table = Os.Address_space.page_table child.Os.Proc.aspace in
  let probe = Sim.Units.round_up va ~align:Sim.Units.huge_2m in
  (match Hw.Page_table.lookup c_table ~va:probe with
  | Some (_, leaf) ->
    check_bool "child sees base pages" true (leaf.Hw.Page_table.size = Hw.Page_size.Small)
  | None -> Alcotest.fail "child missing mapping");
  (* Every one of the split block's base pages is counted. *)
  Alcotest.(check (list string)) "invariants hold after the split" []
    (List.map Os.Check.violation_to_string (Os.Check.run k));
  (* Both can write independently after the CoW break. *)
  K.access k child ~va:probe ~write:true;
  K.access k parent ~va:probe ~write:true

(* --- Interplay: FOM access pattern under an attached cache ---------- *)

let test_fom_with_cache () =
  let kernel, fom = mk_fom () in
  let cache =
    Physmem.Cache_hier.create ~clock:(K.clock kernel) ~stats:(K.stats kernel) ()
  in
  Physmem.Phys_mem.attach_cache (K.mem kernel) cache;
  let proc = K.create_process kernel () in
  let r = F.alloc fom proc ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw () in
  F.access fom proc ~va:r.F.va ~write:true;
  let h0 = Sim.Stats.get (K.stats kernel) "l1_hit" in
  F.access fom proc ~va:r.F.va ~write:false;
  check_bool "repeat FOM access hits the cache" true
    (Sim.Stats.get (K.stats kernel) "l1_hit" > h0)

(* --- Interplay: reclaim pressure while a FOM process is running ------ *)

let test_reclaim_leaves_fom_alone () =
  let kernel, fom = mk_fom () in
  let p_baseline = K.create_process kernel () in
  let p_fom = K.create_process kernel () in
  let r = F.alloc fom p_fom ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw () in
  ignore (F.access_range fom p_fom ~va:r.F.va ~len:r.F.len ~write:true ~stride:Sim.Units.page_size);
  (* Baseline process creates reclaim pressure. *)
  let va = K.mmap_anon kernel p_baseline ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw ~populate:false in
  ignore
    (K.access_range kernel p_baseline ~va ~len:(Sim.Units.kib 64) ~write:true
       ~stride:Sim.Units.page_size);
  ignore (Os.Reclaim.scan (K.reclaim kernel) ~target_frames:8);
  (* FOM pages are implicitly pinned: never on the reclaim lists. *)
  ignore (F.access_range fom p_fom ~va:r.F.va ~len:r.F.len ~write:false ~stride:Sim.Units.page_size);
  check_int "fom region fully resident" 16 (Os.Procfs.rss_pages p_fom)

(* --- Property: defragmentation never changes what files contain ------ *)

let prop_defrag_preserves_contents =
  qtest "defragment preserves every file's bytes" ~count:25
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let mem = mk_mem ~dram:(Sim.Units.mib 16) () in
      let fs = Fs.Memfs.create ~mem ~first:0 ~count:512 ~mode:Fs.Memfs.Tmpfs () in
      let rng = Sim.Rng.create ~seed in
      (* Random create/extend/write/unlink churn to shuffle the bitmap. *)
      let live = ref [] in
      let fresh = ref 0 in
      for _ = 1 to 60 do
        match Sim.Rng.int rng 3 with
        | 0 ->
          let path = Printf.sprintf "/p%d" !fresh in
          incr fresh;
          let ino = Fs.Memfs.create_file fs path ~persistence:Fs.Inode.Volatile in
          (try
             Fs.Memfs.extend fs ino
               ~bytes_wanted:(Sim.Units.page_size * Sim.Rng.int_in rng ~lo:1 ~hi:6);
             let stamp = String.make 32 (Char.chr (Char.code 'a' + Sim.Rng.int rng 26)) in
             Fs.Memfs.write_file fs ino ~off:0 stamp;
             live := (path, stamp) :: !live
           with Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> Fs.Memfs.unlink fs path)
        | 1 -> (
          match !live with
          | [] -> ()
          | (path, _) :: rest ->
            Fs.Memfs.unlink fs path;
            live := rest)
        | _ -> ()
      done;
      ignore (Fs.Memfs.defragment fs ());
      List.for_all
        (fun (path, stamp) ->
          match Fs.Memfs.lookup fs path with
          | None -> false
          | Some ino ->
            Bytes.to_string (Fs.Memfs.read_file fs ino ~off:0 ~len:32) = stamp)
        !live)

(* --- Property: grafted mappings agree across processes --------------- *)

let prop_graft_translation_agreement =
  qtest "all processes sharing a file translate identically" ~count:20
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 1 8))
    (fun (seed, nprocs) ->
      let kernel, fom = mk_fom () in
      let rng = Sim.Rng.create ~seed in
      let p0 = K.create_process kernel () in
      let len = Sim.Units.page_size * Sim.Rng.int_in rng ~lo:1 ~hi:1024 in
      ignore (F.alloc fom p0 ~name:"/shared" ~len ~prot:Hw.Prot.rw ());
      let mappings =
        List.init nprocs (fun _ ->
            let p = K.create_process kernel () in
            (p, F.map_path fom p "/shared"))
      in
      (* At random offsets, every process resolves to the same frame. *)
      List.for_all
        (fun _ ->
          let off = Sim.Rng.int rng len in
          let translations =
            List.map
              (fun ((p : Os.Proc.t), (r : F.region)) ->
                match
                  Hw.Page_table.lookup (Os.Address_space.page_table p.Os.Proc.aspace)
                    ~va:(r.F.va + off)
                with
                | Some (pa, _) -> pa
                | None -> -1)
              mappings
          in
          match translations with
          | [] -> true
          | x :: rest -> x >= 0 && List.for_all (( = ) x) rest)
        (List.init 16 Fun.id))

(* --- Property: scenario runs are deterministic ----------------------- *)

let prop_scenario_deterministic =
  qtest "identical seeds give identical simulated time" ~count:10
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let run () =
        let k = mk_kernel () in
        let apps = Wl.Scenario.desktop_mix ~rng:(Sim.Rng.create ~seed) ~apps:2 ~steps:30 in
        (Wl.Scenario.run k ~backend:Wl.Scenario.Baseline ~asids:true ~quantum:4 apps)
          .Wl.Scenario.sim_us
      in
      run () = run ())

let suite =
  [
    Alcotest.test_case "model: FS churn with crash injection (10 seeds)" `Slow
      test_fs_model_with_crashes;
    Alcotest.test_case "model: FS churn without crash (6 seeds)" `Slow test_fs_model_no_crash;
    Alcotest.test_case "model: FOM region lifecycle (6 seeds)" `Slow test_fom_model;
    Alcotest.test_case "model: translation agreement (6 seeds)" `Slow test_translation_model;
    Alcotest.test_case "fom: copy_region duplicates and diverges" `Quick test_copy_region;
    Alcotest.test_case "fom: copy_region cost is upfront and linear" `Quick
      test_copy_region_cost_is_upfront;
    Alcotest.test_case "interplay: uswap after crash" `Quick test_uswap_after_crash;
    Alcotest.test_case "interplay: fork after THP" `Quick test_fork_after_thp;
    Alcotest.test_case "interplay: FOM under a cache" `Quick test_fom_with_cache;
    Alcotest.test_case "interplay: reclaim never touches FOM pages" `Quick
      test_reclaim_leaves_fom_alone;
    prop_defrag_preserves_contents;
    prop_graft_translation_agreement;
    prop_scenario_deterministic;
  ]
