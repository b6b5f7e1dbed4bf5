(* A durable write-ahead log on persistent memory, built directly on the
   clwb/sfence primitives that persistent-memory file systems like PMFS
   rely on. The machine's memory is its one persistence domain: a store
   through Phys_mem.write_persistent reaches the media only once its line
   is flushed, and Phys_mem.crash reverts every line that was not.

   Records are appended with a commit marker written *after* the payload
   is flushed and fenced. A crash mid-append tears the unflushed tail;
   recovery scans markers and keeps exactly the committed prefix —
   demonstrating why the ordering discipline matters and what the
   machine model guarantees. Run with: dune exec examples/durable_log.exe *)

let record_size = 64 (* one cache line per record: payload 63B + marker *)

let () =
  let clock = Sim.Clock.create () in
  let stats = Sim.Stats.create () in
  let mem =
    Physmem.Phys_mem.create ~clock ~stats ~dram_bytes:(Sim.Units.mib 16)
      ~nvm_bytes:(Sim.Units.mib 16) ()
  in
  let log_base = Physmem.Frame.to_addr (Physmem.Phys_mem.dram_frames mem) in

  let record_addr i = log_base + (i * record_size) in
  let append ~durable i payload =
    let payload = String.sub (payload ^ String.make 62 ' ') 0 62 in
    let addr = record_addr i in
    Physmem.Phys_mem.write_persistent mem ~addr payload;
    if durable then begin
      (* Correct protocol: flush payload, fence, then commit marker,
         flush, fence. *)
      Physmem.Phys_mem.flush mem ~addr ~len:62;
      Physmem.Phys_mem.fence mem;
      Physmem.Phys_mem.write_persistent mem ~addr:(addr + 63) "C";
      Physmem.Phys_mem.flush mem ~addr:(addr + 63) ~len:1;
      Physmem.Phys_mem.fence mem
    end
    else
      (* Buggy fast path: the marker goes out without flushing. *)
      Physmem.Phys_mem.write_persistent mem ~addr:(addr + 63) "C"
  in
  let committed i =
    Physmem.Phys_mem.read_byte mem (record_addr i + 63) = 'C'
  in
  let payload_of i =
    String.trim (Bytes.to_string (Physmem.Phys_mem.read mem ~addr:(record_addr i) ~len:62))
  in

  Printf.printf "Appending 5 records with the correct flush+fence protocol...\n";
  for i = 0 to 4 do
    append ~durable:true i (Printf.sprintf "record-%d" i)
  done;
  Printf.printf "Appending 3 more with a buggy protocol (no flush before crash)...\n";
  for i = 5 to 7 do
    append ~durable:false i (Printf.sprintf "record-%d" i)
  done;
  Printf.printf "Unflushed cache lines at crash time: %d\n" (Physmem.Phys_mem.unflushed_lines mem);

  Printf.printf "\n*** power failure ***\n\n";
  Physmem.Phys_mem.crash mem;

  (* Recovery: scan for committed records. *)
  let recovered = ref [] in
  (try
     for i = 0 to 7 do
       if committed i then recovered := payload_of i :: !recovered else raise Exit
     done
   with Exit -> ());
  let recovered = List.rev !recovered in
  Printf.printf "Recovered %d committed records:\n" (List.length recovered);
  List.iter (fun r -> Printf.printf "  %s\n" r) recovered;
  Printf.printf "Records 5-7 were lost: their lines were torn in the cache hierarchy.\n";
  assert (List.length recovered = 5);
  Printf.printf "\nLesson: durability needs explicit ordering (flush+fence), which PMFS\n";
  Printf.printf "pays once per metadata update - and which file-only memory inherits\n";
  Printf.printf "for free by storing data in a persistent file system.\n";
  Printf.printf "Simulated time: %.1f us\n" (Sim.Clock.us (Sim.Clock.now clock))
