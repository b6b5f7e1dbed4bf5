(* Sorting a dataset larger than the memory you allow it to occupy —
   user-level paging in anger.

   Under file-only memory the kernel never swaps (§4.1); an application
   that wants a bounded resident set implements paging itself with
   userfaultfd (§3.1). This example sorts 64 KiB of records while keeping
   at most a 16 KiB window of each file resident, using the classic
   external merge sort: sort window-sized chunks in place, then k-way
   merge through the windows. Run with: dune exec examples/external_sort.exe *)

module F = O1mem.Fom
module U = O1mem.Uswap

let ints = 16 * 1024 (* 64 KiB of 4-byte records *)
let window_pages = 4 (* 16 KiB resident per file *)

let read_int u ~idx =
  let off = idx * 4 in
  let b = Bytes.create 4 in
  for i = 0 to 3 do
    Bytes.set b i (U.read_byte u ~off:(off + i))
  done;
  Int32.to_int (Bytes.get_int32_le b 0)

let write_int u ~idx v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  for i = 0 to 3 do
    U.write_byte u ~off:(idx * 4 + i) (Bytes.get b i)
  done

let () =
  let kernel = Os.Kernel.create () in
  let fom = O1mem.Fom.create kernel () in
  let proc = Os.Kernel.create_process kernel () in
  let fs = F.fs fom in

  (* The unsorted dataset, written through the file API. *)
  let data = Fs.Memfs.create_file fs "/data" ~persistence:Fs.Inode.Persistent in
  Fs.Memfs.extend fs data ~bytes_wanted:(ints * 4);
  let rng = Sim.Rng.create ~seed:7 in
  let buf = Bytes.create (ints * 4) in
  for i = 0 to ints - 1 do
    Bytes.set_int32_le buf (i * 4) (Int32.of_int (Sim.Rng.int rng 1_000_000))
  done;
  Fs.Memfs.write_file fs data ~off:0 (Bytes.to_string buf);
  let out = Fs.Memfs.create_file fs "/sorted" ~persistence:Fs.Inode.Persistent in
  Fs.Memfs.extend fs out ~bytes_wanted:(ints * 4);

  let u_in = U.create fom proc ~backing_path:"/data" ~window_pages in
  let u_out = U.create fom proc ~backing_path:"/sorted" ~window_pages in
  Printf.printf "Sorting %d records (%s) through two %s windows\n" ints
    (Sim.Units.bytes_to_string (ints * 4))
    (Sim.Units.bytes_to_string (window_pages * Sim.Units.page_size));

  (* Phase 1: sort each window-sized chunk in place. The chunk fits the
     resident window, so this phase faults each page in exactly once. *)
  let chunk_ints = window_pages * Sim.Units.page_size / 4 in
  let chunks = (ints + chunk_ints - 1) / chunk_ints in
  for c = 0 to chunks - 1 do
    let base = c * chunk_ints in
    let n = min chunk_ints (ints - base) in
    let a = Array.init n (fun i -> read_int u_in ~idx:(base + i)) in
    Array.sort compare a;
    Array.iteri (fun i v -> write_int u_in ~idx:(base + i) v) a
  done;
  Printf.printf "Phase 1: %d sorted chunks; input window took %d faults, %d writebacks\n"
    chunks (U.faults u_in) (U.writebacks u_in);

  (* Phase 2: k-way merge of the sorted chunks into the output file.
     Each chunk cursor advances sequentially, so the window replacement
     stays civilized even with k streams. *)
  let cursors = Array.init chunks (fun c -> c * chunk_ints) in
  let limits = Array.init chunks (fun c -> min ((c + 1) * chunk_ints) ints) in
  for dst = 0 to ints - 1 do
    let best = ref (-1) in
    for c = 0 to chunks - 1 do
      if cursors.(c) < limits.(c) then
        if !best < 0 || read_int u_in ~idx:cursors.(c) < read_int u_in ~idx:cursors.(!best) then
          best := c
    done;
    write_int u_out ~idx:dst (read_int u_in ~idx:cursors.(!best));
    cursors.(!best) <- cursors.(!best) + 1
  done;
  U.destroy u_in;
  U.destroy u_out;

  (* Verify through the plain file API. *)
  let sorted = Fs.Memfs.read_file fs out ~off:0 ~len:(ints * 4) in
  let prev = ref min_int in
  let ok = ref true in
  for i = 0 to ints - 1 do
    let v = Int32.to_int (Bytes.get_int32_le sorted (i * 4)) in
    if v < !prev then ok := false;
    prev := v
  done;
  Printf.printf "Phase 2: merged; output is %s\n" (if !ok then "SORTED" else "BROKEN");
  assert !ok;
  Printf.printf
    "Total user-level paging: %d faults, %d evictions, %d dirty write-backs - all\n"
    (Sim.Stats.get (Os.Kernel.stats kernel) "userfault")
    (Sim.Stats.get (Os.Kernel.stats kernel) "userfault_evict")
    (U.writebacks u_in + U.writebacks u_out);
  Printf.printf "paid by this one opted-in process; the kernel ran no reclaim machinery.\n";
  Printf.printf "Simulated time: %.1f ms\n"
    (Sim.Clock.us (Sim.Clock.now (Os.Kernel.clock kernel)) /. 1000.0)
