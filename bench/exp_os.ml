(* E11/E12/E13/E17 — OS-economics experiments (paper §2 utilization
   claim, §4.1 reclamation and persistence, and the metadata overheads
   behind the "25 flags / 38 fields" observation). *)
open Bench_env

(* E11 / §2: the Agrawal-style fleet model: file systems run below 50%
   full, so persistent-memory capacity is available for volatile use. *)
let tab_utilization () =
  let t = Sim.Table.create ~title:"E11 - simulated 5-year fleet: file-system utilization"
      ~columns:[ "metric"; "value" ]
  in
  let r = Wl.Fs_study.run ~rng:(Sim.Rng.create ~seed:2017) Wl.Fs_study.default_params in
  Sim.Table.add_row t [ "samples"; Sim.Table.cell_int r.Wl.Fs_study.samples ];
  Sim.Table.add_row t
    [ "mean utilization"; Sim.Table.cell_float ~dp:3 r.Wl.Fs_study.mean_utilization ];
  Sim.Table.add_row t
    [ "median utilization"; Sim.Table.cell_float ~dp:3 r.Wl.Fs_study.median_utilization ];
  Sim.Table.add_row t
    [ "fraction below 50%"; Sim.Table.cell_float ~dp:3 r.Wl.Fs_study.fraction_below_half ];
  t

(* E12 / §4.1: reclaiming memory under pressure — per-page scanning
   (CLOCK and 2Q) vs deleting discardable files. *)
let tab_reclaim () =
  let t = Sim.Table.create ~title:"E12 - reclaim N MiB under pressure (us, pages examined)"
      ~columns:[ "target"; "CLOCK us"; "examined"; "2Q us"; "examined"; "file discard us"; "files" ]
  in
  List.iter
    (fun mb ->
      let len = Sim.Units.mib mb in
      let frames = len / Sim.Units.page_size in
      let scan policy =
        let k = kernel ~dram:(Sim.Units.gib 2) ~reclaim:policy () in
        let p = K.create_process k () in
        (* Resident set twice the target so the scanner has cold pages. *)
        let va = K.mmap_anon k p ~len:(2 * len) ~prot:Hw.Prot.rw ~populate:false in
        touch_pages_kernel k p ~va ~len:(2 * len) ~write:true;
        let ex0 = Os.Reclaim.pages_examined (K.reclaim k) in
        let tt = time_us k (fun () -> ignore (Os.Reclaim.scan (K.reclaim k) ~target_frames:frames)) in
        (tt, Os.Reclaim.pages_examined (K.reclaim k) - ex0)
      in
      let t_clock, ex_clock = scan Os.Reclaim.Clock in
      let t_2q, ex_2q = scan Os.Reclaim.Two_q in
      (* Discardable files: 4 MiB cache files. *)
      let k, fom = kernel_and_fom () in
      let d = O1mem.Discard.create ~fs:(F.fs fom) in
      let file_sz = Sim.Units.mib 4 in
      let files = (2 * len) / file_sz in
      for i = 1 to files do
        O1mem.Discard.register_cache_file d ~path:(Printf.sprintf "/c%d" i) ~size:file_sz
      done;
      let t_discard = time_us k (fun () -> ignore (O1mem.Discard.pressure d ~needed_bytes:len)) in
      Sim.Table.add_row t
        [
          Sim.Table.cell_bytes len;
          Sim.Table.cell_float t_clock;
          Sim.Table.cell_int ex_clock;
          Sim.Table.cell_float t_2q;
          Sim.Table.cell_int ex_2q;
          Sim.Table.cell_float t_discard;
          Sim.Table.cell_int (max 1 (len / file_sz));
        ])
    [ 16; 64; 256 ];
  t

(* E13 / §2: metadata overhead as machines grow to the 6 TB the paper
   quotes: struct page vs file-system metadata, plus boot-time init. *)
let tab_metadata () =
  let t = Sim.Table.create ~title:"E13 - per-page vs per-file metadata at scale"
      ~columns:
        [ "memory"; "struct page bytes"; "boot init (ms)"; "FS metadata bytes (1000 files)"; "ratio" ]
  in
  List.iter
    (fun gb ->
      let bytes = Sim.Units.gib gb in
      let frames = bytes / Sim.Units.page_size in
      let sp_bytes = frames * Os.Page_meta.bytes_per_page in
      let boot_ms = Sim.Clock.us (frames * Sim.Cost_model.struct_page_init) /. 1000.0 in
      (* FS metadata for the same memory held as 1000 equal files: inode
         (128 B) + one extent record (24 B) each, plus a 1-bit-per-frame
         bitmap. *)
      let fs_bytes = (1000 * (128 + 24)) + (frames / 8) in
      Sim.Table.add_row t
        [
          Sim.Table.cell_bytes bytes;
          Sim.Table.cell_bytes sp_bytes;
          Sim.Table.cell_float ~dp:1 boot_ms;
          Sim.Table.cell_bytes fs_bytes;
          Sim.Table.cell_float ~dp:1 (float_of_int sp_bytes /. float_of_int fs_bytes);
        ])
    [ 1; 16; 128; 1024; 6144 ];
  t

(* E17 / §4.1: crash + recovery. Recovery scans files, not bytes. *)
let tab_crash () =
  let t = Sim.Table.create ~title:"E17 - crash recovery cost (us) vs data volume"
      ~columns:[ "volatile data"; "files"; "recovery us"; "per-file us" ]
  in
  List.iter
    (fun (files, mb_each) ->
      let k, fom = kernel_and_fom ~nvm:(Sim.Units.gib 4) () in
      let p = K.create_process k () in
      for i = 1 to files do
        ignore
          (F.alloc fom p ~name:(Printf.sprintf "/v%d" i) ~persistence:Fs.Inode.Volatile
             ~len:(Sim.Units.mib mb_each) ~prot:Hw.Prot.rw ())
      done;
      let report = O1mem.Persistence.crash_and_recover fom in
      let rec_us = Sim.Clock.us report.O1mem.Persistence.recovery_cycles in
      Sim.Table.add_row t
        [
          Sim.Table.cell_bytes (files * Sim.Units.mib mb_each);
          Sim.Table.cell_int report.O1mem.Persistence.files_scanned;
          Sim.Table.cell_float rec_us;
          Sim.Table.cell_float (rec_us /. float_of_int (max 1 report.O1mem.Persistence.files_scanned));
        ])
    [ (8, 1); (8, 64); (64, 1); (64, 16) ];
  t

(* E18 (macro): a whole desktop mix, baseline vs FOM, with and without
   ASIDs. The per-operation savings compound at system level. *)
let tab_macro () =
  let t = Sim.Table.create
      ~title:"E18 - desktop mix: 6 apps x 300 steps, round-robin (totals)"
      ~columns:[ "configuration"; "sim ms"; "switches"; "faults"; "tlb misses" ]
  in
  let apps () = Wl.Scenario.desktop_mix ~rng:(Sim.Rng.create ~seed:77) ~apps:6 ~steps:300 in
  let row name backend asids =
    let k = kernel ~dram:(Sim.Units.gib 2) ~nvm:(Sim.Units.gib 2) () in
    let fom = match backend with Wl.Scenario.Fom -> Some (F.create k ()) | _ -> None in
    let r = Wl.Scenario.run k ?fom ~backend ~asids ~quantum:8 (apps ()) in
    Sim.Table.add_row t
      [
        name;
        Sim.Table.cell_float ~dp:2 (r.Wl.Scenario.sim_us /. 1000.0);
        Sim.Table.cell_int r.Wl.Scenario.switches;
        Sim.Table.cell_int r.Wl.Scenario.faults;
        Sim.Table.cell_int r.Wl.Scenario.tlb_misses;
      ]
  in
  row "baseline, no ASIDs" Wl.Scenario.Baseline false;
  row "baseline, ASIDs" Wl.Scenario.Baseline true;
  row "FOM, no ASIDs" Wl.Scenario.Fom false;
  row "FOM, ASIDs" Wl.Scenario.Fom true;
  t

let run () =
  print_header "E11" "Storage utilization stays under 50%: the excess is usable as volatile memory.";
  Sim.Table.print (tab_utilization ());
  print_header "E12" "Reclaim: page scanning is linear in resident pages; file discard is O(files).";
  Sim.Table.print (tab_reclaim ());
  print_header "E13" "Metadata: 64B/page struct page vs per-file records, up to the 6TB server.";
  Sim.Table.print (tab_metadata ());
  print_header "E17" "Crash recovery scans files, not bytes: per-file cost is flat.";
  Sim.Table.print (tab_crash ());
  print_header "E18" "System level: the per-operation savings compound across a desktop mix.";
  Sim.Table.print (tab_macro ())
