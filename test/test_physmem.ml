open Helpers
module PM = Physmem.Phys_mem
module Frame = Physmem.Frame

let test_frame_arith () =
  check_int "to_addr" 8192 (Frame.to_addr 2);
  check_int "of_addr" 2 (Frame.of_addr 8192);
  check_int "of_addr mid" 2 (Frame.of_addr 8200);
  check_int "offset" 8 (Frame.offset_in_frame 8200)

let test_create_validation () =
  let clock, stats = mk_env () in
  Alcotest.check_raises "unaligned dram" (Invalid_argument "Phys_mem.create: dram_bytes not page-aligned")
    (fun () -> ignore (PM.create ~clock ~stats ~dram_bytes:4097 ~nvm_bytes:0 ()));
  Alcotest.check_raises "empty" (Invalid_argument "Phys_mem.create: empty machine") (fun () ->
      ignore (PM.create ~clock ~stats ~dram_bytes:0 ~nvm_bytes:0 ()))

let test_regions () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  check_int "total frames" 2048 (PM.total_frames mem);
  check_int "dram frames" 1024 (PM.dram_frames mem);
  check_int "nvm frames" 1024 (PM.nvm_frames mem);
  check_bool "dram region" true (PM.region_of_frame mem 0 = PM.Dram);
  check_bool "nvm region" true (PM.region_of_frame mem 1024 = PM.Nvm);
  check_bool "valid" true (PM.valid_frame mem 2047);
  check_bool "invalid" false (PM.valid_frame mem 2048)

let test_read_write_bytes () =
  let mem = mk_mem () in
  check_bool "initially zero" true (PM.read_byte mem 1000 = '\000');
  PM.write_byte mem 1000 'A';
  check_bool "written" true (PM.read_byte mem 1000 = 'A');
  PM.write_byte mem 1000 '\000';
  check_bool "rewritten to zero" true (PM.read_byte mem 1000 = '\000');
  check_int "no residue stored" 0 (PM.resident_bytes mem)

let test_bulk_read_write () =
  let mem = mk_mem () in
  PM.write mem ~addr:4096 "hello world";
  let b = PM.read mem ~addr:4096 ~len:11 in
  check_string "round trip" "hello world" (Bytes.to_string b);
  let partial = PM.read mem ~addr:4100 ~len:5 in
  check_string "offset read" "o wor" (Bytes.to_string partial)

let test_access_charges () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  let clock = PM.clock mem in
  let before = Sim.Clock.now clock in
  PM.touch mem 0;
  check_int "dram touch cost" Sim.Cost_model.mem_ref_dram (Sim.Clock.elapsed clock ~since:before);
  let before = Sim.Clock.now clock in
  PM.write_byte mem (Frame.to_addr 1024) 'x';
  check_int "nvm write cost" Sim.Cost_model.mem_ref_nvm_write
    (Sim.Clock.elapsed clock ~since:before);
  check_int "stats dram_read" 1 (Sim.Stats.get (PM.stats mem) "dram_read");
  check_int "stats nvm_write" 1 (Sim.Stats.get (PM.stats mem) "nvm_write")

let test_bulk_charges_per_line () =
  let mem = mk_mem () in
  let clock = PM.clock mem in
  let before = Sim.Clock.now clock in
  ignore (PM.read mem ~addr:0 ~len:256);
  (* Streaming: one full-latency line + bandwidth cost for the rest. *)
  check_int "first-line latency + stream"
    (Sim.Cost_model.mem_ref_dram + Sim.Cost_model.copy_cost ~bytes:256)
    (Sim.Clock.elapsed clock ~since:before)

(* A copy inside the memory costs and counts what a read into a buffer
   and a write from it cost: from DRAM across a frame boundary, a zero
   frame included, into NVM. *)
let test_copy_charges_read_then_write () =
  let src = 4000 and dst = Sim.Units.mib 64 + 100 and len = 9000 in
  let run copy =
    let mem = mk_mem () in
    PM.write mem ~addr:src (String.make 200 'a');
    PM.write mem ~addr:(src + 8000) "tail";
    let c0 = Sim.Clock.now (PM.clock mem) in
    copy mem;
    (Sim.Clock.now (PM.clock mem) - c0, Sim.Stats.snapshot (PM.stats mem), PM.read mem ~addr:dst ~len)
  in
  let cycles, counters, bytes = run (fun mem -> PM.copy mem ~src ~dst ~len) in
  let cycles', counters', bytes' =
    run (fun mem -> PM.write_sub mem ~addr:dst (PM.read mem ~addr:src ~len) ~pos:0 ~len)
  in
  check_int "cycles" cycles' cycles;
  check_bool "counters" true (counters = counters');
  check_bool "bytes" true (Bytes.equal bytes bytes');
  Alcotest.check_raises "overlapping ranges" (Invalid_argument "Phys_mem.copy: overlapping ranges") (fun () ->
      PM.copy (mk_mem ()) ~src ~dst:(src + 10) ~len)

let test_zero_frame () =
  let mem = mk_mem () in
  PM.write mem ~addr:8192 "dirty";
  check_bool "frame dirty" false (PM.frame_is_zero mem 2);
  let clock = PM.clock mem in
  let before = Sim.Clock.now clock in
  PM.zero_frame mem 2;
  check_bool "frame clean" true (PM.frame_is_zero mem 2);
  check_int "zeroing charged" 1024 (Sim.Clock.elapsed clock ~since:before);
  check_int "bytes_zeroed stat" 4096 (Sim.Stats.get (PM.stats mem) "bytes_zeroed")

let test_out_of_range () =
  let mem = mk_mem ~dram:(Sim.Units.mib 1) ~nvm:0 () in
  Alcotest.check_raises "read oob" (Invalid_argument "Phys_mem: address out of range") (fun () ->
      ignore (PM.read_byte mem (Sim.Units.mib 1)))

let test_crash_drops_dram_keeps_nvm () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  PM.write mem ~addr:0 "volatile";
  let nvm_addr = Frame.to_addr 1024 in
  PM.write mem ~addr:nvm_addr "durable";
  PM.crash mem;
  check_string "dram lost" (String.make 8 '\000') (Bytes.to_string (PM.read mem ~addr:0 ~len:8));
  check_string "nvm kept" "durable" (Bytes.to_string (PM.read mem ~addr:nvm_addr ~len:7))

let test_discard_no_cost () =
  let mem = mk_mem () in
  PM.write mem ~addr:4096 "x";
  let clock = PM.clock mem in
  let before = Sim.Clock.now clock in
  PM.discard_frame mem 1;
  check_int "free of charge" 0 (Sim.Clock.elapsed clock ~since:before);
  check_bool "cleared" true (PM.frame_is_zero mem 1)

(* Zero engine *)

(* [background_step] fills the one pool of zeroed frames off the critical
   path, and [take] hands its frames out first in, first out. *)
let test_zero_engine_pool () =
  let mem = mk_mem () in
  let z = Physmem.Zero_engine.create mem in
  check_bool "pool empty" true (Physmem.Zero_engine.take z = None);
  PM.write mem ~addr:(Frame.to_addr 5) "junk";
  Physmem.Zero_engine.put_dirty z ~first:5 ~count:2;
  check_int "pending" 2 (Physmem.Zero_engine.pending z);
  check_int "zeroed two" 2 (Physmem.Zero_engine.background_step z ~budget_frames:10);
  check_int "available" 2 (Physmem.Zero_engine.available z);
  check_bool "frame 5 clean" true (PM.frame_is_zero mem 5);
  check_bool "handout, first in first out" true (Physmem.Zero_engine.take z = Some 5);
  check_bool "then the next" true (Physmem.Zero_engine.take z = Some 6)

let test_zero_engine_budget () =
  let mem = mk_mem () in
  let z = Physmem.Zero_engine.create mem in
  Physmem.Zero_engine.put_dirty z ~first:1 ~count:4;
  check_int "partial" 3 (Physmem.Zero_engine.background_step z ~budget_frames:3);
  check_int "left pending" 1 (Physmem.Zero_engine.pending z)

let test_bulk_erase_constant_cost () =
  let mem = mk_mem () in
  let z = Physmem.Zero_engine.create mem in
  for i = 0 to 63 do
    PM.write mem ~addr:(Frame.to_addr i) "payload"
  done;
  let clock = PM.clock mem in
  let t1 =
    let before = Sim.Clock.now clock in
    Physmem.Zero_engine.bulk_erase z ~first:0 ~count:1;
    Sim.Clock.elapsed clock ~since:before
  in
  for i = 0 to 63 do
    PM.write mem ~addr:(Frame.to_addr i) "payload"
  done;
  let t64 =
    let before = Sim.Clock.now clock in
    Physmem.Zero_engine.bulk_erase z ~first:0 ~count:64;
    Sim.Clock.elapsed clock ~since:before
  in
  check_int "erase cost independent of size" t1 t64;
  check_bool "all clean" true (PM.frame_is_zero mem 63)

(* NVM persistence primitives *)

let test_nvm_flush_fence () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  let addr = Frame.to_addr 1024 in
  PM.write_persistent mem ~addr "important";
  check_bool "unflushed lines" true (PM.unflushed_lines mem > 0);
  PM.flush mem ~addr ~len:9;
  PM.fence mem;
  check_int "all flushed" 0 (PM.unflushed_lines mem);
  PM.crash mem;
  check_string "durable after crash" "important"
    (Bytes.to_string (PM.read mem ~addr ~len:9))

let test_nvm_torn_write () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  let addr = Frame.to_addr 1024 in
  PM.write_persistent mem ~addr "lost";
  (* no flush *)
  PM.crash mem;
  check_string "unflushed data torn" (String.make 4 '\000')
    (Bytes.to_string (PM.read mem ~addr ~len:4))

(* A frame scrubbed for its next owner forgets its unflushed lines: the
   crash must not put the old owner's undo image over the new owner's
   plain write. *)
let test_scrub_drops_undo () =
  List.iter
    (fun (what, scrub) ->
      let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
      let pfn = 1024 in
      let addr = Frame.to_addr pfn in
      PM.write_persistent mem ~addr "old-owner";
      PM.flush mem ~addr ~len:9;
      PM.fence mem;
      PM.write_persistent mem ~addr "unflushed";
      scrub mem pfn;
      check_int (what ^ ": no unflushed line left") 0 (PM.unflushed_lines mem);
      PM.write mem ~addr "new-owner";
      PM.crash mem;
      check_string (what ^ ": new owner's bytes survive") "new-owner" (Bytes.to_string (PM.read mem ~addr ~len:9)))
    [ ("zero_frame", PM.zero_frame); ("discard_frame", PM.discard_frame) ]

(* Cache hierarchy *)

let mk_cached_mem () =
  let mem = mk_mem () in
  let cache =
    Physmem.Cache_hier.create ~clock:(PM.clock mem) ~stats:(PM.stats mem) ()
  in
  PM.attach_cache mem cache;
  (mem, cache)

let test_cache_hit_after_miss () =
  let mem, _ = mk_cached_mem () in
  let clock = PM.clock mem in
  let cold =
    let b = Sim.Clock.now clock in
    PM.touch mem 4096;
    Sim.Clock.elapsed clock ~since:b
  in
  let warm =
    let b = Sim.Clock.now clock in
    PM.touch mem 4096;
    Sim.Clock.elapsed clock ~since:b
  in
  check_bool "cold miss pays memory" true (cold > 80);
  check_int "warm hit is L1 latency" 4 warm;
  check_int "one llc miss" 1 (Sim.Stats.get (PM.stats mem) "llc_miss");
  check_int "one l1 hit" 1 (Sim.Stats.get (PM.stats mem) "l1_hit")

let test_cache_same_line_shares () =
  let mem, _ = mk_cached_mem () in
  PM.touch mem 0;
  (* Byte 63 is in the same 64B line: hits. *)
  PM.touch mem 63;
  check_int "same line hits" 1 (Sim.Stats.get (PM.stats mem) "l1_hit");
  (* Byte 64 is the next line: misses. *)
  PM.touch mem 64;
  check_int "next line misses" 2 (Sim.Stats.get (PM.stats mem) "llc_miss")

let test_cache_capacity_spill_to_l2 () =
  let mem, _ = mk_cached_mem () in
  (* Touch 64 KiB of distinct lines: twice the 32 KiB L1. *)
  let lines = 1024 in
  for i = 0 to lines - 1 do
    PM.touch mem (i * 64)
  done;
  (* Second pass: the early lines fell out of L1 but fit in L2. *)
  Sim.Stats.reset (PM.stats mem);
  for i = 0 to lines - 1 do
    PM.touch mem (i * 64)
  done;
  check_int "no LLC misses on re-scan" 0 (Sim.Stats.get (PM.stats mem) "llc_miss");
  check_bool "some L2 hits" true (Sim.Stats.get (PM.stats mem) "l2_hit" > 0)

let test_cache_dirty_writeback_counted () =
  let clock, stats = mk_env () in
  (* A tiny 1-set cache so evictions are immediate. *)
  let cache =
    Physmem.Cache_hier.create ~clock ~stats
      ~levels:[ { Physmem.Cache_hier.name = "t"; size_bytes = 128; ways = 2; latency = 1 } ]
      ()
  in
  ignore (Physmem.Cache_hier.access cache ~addr:0 ~write:true);
  ignore (Physmem.Cache_hier.access cache ~addr:64 ~write:false);
  check_int "no writeback yet" 0 (Sim.Stats.get stats "cache_writeback");
  (* Third distinct line evicts the dirty LRU line (addr 0). *)
  ignore (Physmem.Cache_hier.access cache ~addr:128 ~write:false);
  check_int "dirty victim written back" 1 (Sim.Stats.get stats "cache_writeback")

let test_cache_flush () =
  let mem, cache = mk_cached_mem () in
  PM.touch mem 0;
  check_bool "resident" true (Physmem.Cache_hier.line_count cache > 0);
  Physmem.Cache_hier.flush cache;
  check_int "empty after flush" 0 (Physmem.Cache_hier.line_count cache);
  Sim.Stats.reset (PM.stats mem);
  PM.touch mem 0;
  check_int "cold again" 1 (Sim.Stats.get (PM.stats mem) "llc_miss")

let test_cache_detach_restores_flat_cost () =
  let mem, _ = mk_cached_mem () in
  PM.touch mem 0;
  PM.detach_cache mem;
  let clock = PM.clock mem in
  let b = Sim.Clock.now clock in
  PM.touch mem 0;
  check_int "flat DRAM latency again" 80 (Sim.Clock.elapsed clock ~since:b)

(* Properties *)

let prop_write_read_roundtrip =
  qtest "bulk write/read round-trips" ~count:100
    QCheck2.Gen.(pair (int_bound 10_000) (string_size ~gen:printable (int_range 1 200)))
    (fun (addr, s) ->
      let mem = mk_mem () in
      PM.write mem ~addr s;
      Bytes.to_string (PM.read mem ~addr ~len:(String.length s)) = s)

let prop_zero_then_read_zero =
  qtest "zero_range clears everything" ~count:50
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 500))
    (fun (addr, len) ->
      let mem = mk_mem () in
      PM.write mem ~addr (String.make len 'z');
      PM.zero_range mem ~addr ~len;
      Bytes.to_string (PM.read mem ~addr ~len) = String.make len '\000')

(* Phys_mem against a pure model: the machine's 32 KiB as one flat byte
   string. Four DRAM and four NVM frames make every frame's buffer go back
   to the free list and come out again many times in one op list. The
   durability rule is modelled per line: a line's first persistent write
   since its last flush keeps the bytes the line held before it, a flush
   drops them (a torn one skips its first line), so does zeroing or
   discarding the line's frame, and a crash puts every line still kept
   back before it wipes DRAM. Persistent writes and flushes land in 512
   NVM bytes around the frame 4|5 boundary, so they meet each other
   often. *)
type op =
  | Write of int * string
  | Write_sub of int * string * int * int (* [len] bytes of the source from [pos] *)
  | Read_into of int * int * int (* into a longer buffer at a non-zero offset *)
  | Copy of int * int * int (* source, destination, length *)
  | Write_byte of int * char
  | Zero_frame of int
  | Zero_range of int * int
  | Discard_frame of int
  | Restore_range of int * string
  | Write_persistent of int * string
  | Write_persistent_sub of int * string * int * int
  | Flush of int * int * bool (* torn *)
  | Fence
  | Crash

let model_frames = 8
let model_bytes = model_frames * Sim.Units.page_size
let line = 64

let print_op = function
  | Write (a, s) -> Printf.sprintf "write %d %S" a s
  | Write_sub (a, s, pos, len) -> Printf.sprintf "write_sub %d %S %d %d" a s pos len
  | Read_into (a, len, pos) -> Printf.sprintf "read_into %d %d at %d" a len pos
  | Copy (src, dst, len) -> Printf.sprintf "copy %d -> %d %d" src dst len
  | Write_byte (a, c) -> Printf.sprintf "write_byte %d %C" a c
  | Zero_frame f -> Printf.sprintf "zero_frame %d" f
  | Zero_range (a, n) -> Printf.sprintf "zero_range %d %d" a n
  | Discard_frame f -> Printf.sprintf "discard_frame %d" f
  | Restore_range (a, s) -> Printf.sprintf "restore_range %d %S" a s
  | Write_persistent (a, s) -> Printf.sprintf "write_persistent %d %S" a s
  | Write_persistent_sub (a, s, pos, len) -> Printf.sprintf "write_persistent_sub %d %S %d %d" a s pos len
  | Flush (a, n, torn) -> Printf.sprintf "flush %d %d%s" a n (if torn then " torn" else "")
  | Fence -> "fence"
  | Crash -> "crash"

(* [c] with a zero every [period] bytes (none for 0): four draws, not one
   per byte, keep 200 op lists cheap. *)
let fill len c period = String.init len (fun k -> if period > 0 && k mod period = 0 then '\000' else c)

let op_gen =
  let open QCheck2.Gen in
  let byte = oneofl [ '\000'; '\000'; 'a'; 'b'; '\255' ] in
  let span = int_range 1 600 in
  (* An in-range address for [len] bytes. *)
  let at len = map (fun a -> (min a (model_bytes - len), len)) (int_bound (model_bytes - 1)) in
  let near len = map (fun o -> ((5 * Sim.Units.page_size) - 256 + min o (512 - len), len)) (int_bound 511) in
  let range = span >>= at in
  let str span place = map3 fill span byte (int_bound 3) >>= fun s -> map (fun (a, _) -> (a, s)) (place (String.length s)) in
  (* Sub-range writes: never a multiple of 8 bytes, so both the 8-byte
     count and its byte tail run, from a source padded on both sides. *)
  let odd_span words = map2 (fun k r -> (8 * k) + r) (int_bound words) (int_range 1 7) in
  let sub span place =
    map3
      (fun (a, s) pre post -> (a, String.make pre 'X' ^ s ^ String.make post 'X', pre, String.length s))
      (str span place) (int_bound 15) (int_bound 15)
  in
  let frame = int_bound (model_frames - 1) in
  frequency
    [
      (4, map (fun (a, s) -> Write (a, s)) (str span at));
      (3, map (fun (a, s, pos, len) -> Write_sub (a, s, pos, len)) (sub (odd_span 74) at));
      (2, map2 (fun (a, len) pos -> Read_into (a, len, pos)) range (int_range 1 15));
      (3, range >>= fun (src, len) -> map (fun (dst, _) -> Copy (src, dst, len)) (at len));
      (4, map2 (fun a c -> Write_byte (a, c)) (int_bound (model_bytes - 1)) byte);
      (2, map (fun f -> Zero_frame f) frame);
      (2, map (fun (a, n) -> Zero_range (a, n)) range);
      (2, map (fun f -> Discard_frame f) frame);
      (2, map (fun (a, s) -> Restore_range (a, s)) (str span at));
      (6, map (fun (a, s) -> Write_persistent (a, s)) (str (int_range 1 128) near));
      (3, map (fun (a, s, pos, len) -> Write_persistent_sub (a, s, pos, len)) (sub (odd_span 15) near));
      (4, map2 (fun (a, n) torn -> Flush (a, n, torn)) (int_range 1 256 >>= near) bool);
      (1, pure Fence);
      (2, pure Crash);
    ]

(* A frame scrubbed, then given one non-zero byte, which it keeps inline,
   then an op that must find that byte: a copy inside the frame from a
   range that holds it to one on either side, a persistent write over
   its line and a crash, or a zero, discard or crash of the frame. *)
let one_byte_gen =
  let open QCheck2.Gen in
  let page = Sim.Units.page_size in
  let copy (f, k) =
    map3
      (fun len r d ->
        let src = max 0 (min (k - (r mod len)) (page - len)) in
        let dst =
          if src >= len && (d land 1 = 0 || page - src < 2 * len) then d mod (src - len + 1)
          else src + len + (d mod (page - src - (2 * len) + 1))
        in
        [ Copy (Frame.to_addr f + src, Frame.to_addr f + dst, len) ])
      (int_range 1 256) (int_bound 255) (int_bound (page - 1))
  in
  let persist (f, k) =
    map2
      (fun u s ->
        let a = Frame.to_addr f + (k / line * line) + u in
        [ Write_persistent (min a (model_bytes - String.length s), s); Crash ])
      (int_bound (line - 1))
      (map3 fill (int_range 1 line) (oneofl [ 'a'; '\255' ]) (int_bound 3))
  in
  let scrub (f, _) = oneofl [ [ Zero_frame f ]; [ Discard_frame f ]; [ Crash ] ] in
  let scenario frames tail =
    pair frames (int_bound (page - 1)) >>= fun (f, k) ->
    map2
      (fun c rest -> Discard_frame f :: Write_byte (Frame.to_addr f + k, c) :: rest)
      (oneofl [ 'a'; 'b'; '\255' ])
      (tail (f, k))
  in
  let any = int_bound (model_frames - 1) and nvm = int_range 4 (model_frames - 1) in
  frequency [ (2, scenario any copy); (2, scenario nvm persist); (1, scenario any scrub) ]

(* A scrubbed frame reads zero and its lines keep no undo image. *)
let scrub (model, undo) f =
  Bytes.fill model (Frame.to_addr f) Sim.Units.page_size '\000';
  for l = Frame.to_addr f / line to (Frame.to_addr (f + 1) / line) - 1 do
    Hashtbl.remove undo l
  done

(* A persistent write: each line it covers that keeps no image yet keeps
   the bytes it held before. *)
let persist (model, undo) a src pos len =
  for l = a / line to (a + len - 1) / line do
    if not (Hashtbl.mem undo l) then Hashtbl.add undo l (Bytes.sub_string model (l * line) line)
  done;
  Bytes.blit_string src pos model a len

let apply (mem, plane) (model, undo) = function
  | Write (a, s) ->
    PM.write mem ~addr:a s;
    Bytes.blit_string s 0 model a (String.length s)
  | Write_sub (a, s, pos, len) ->
    PM.write_sub mem ~addr:a (Bytes.of_string s) ~pos ~len;
    Bytes.blit_string s pos model a len
  | Read_into _ -> () (* [reads_back] checks it *)
  | Copy (src, dst, len) when src < dst + len && dst < src + len -> (
    match PM.copy mem ~src ~dst ~len with
    | () -> QCheck2.Test.fail_report "an overlapping copy went through"
    | exception Invalid_argument _ -> ())
  | Copy (src, dst, len) ->
    PM.copy mem ~src ~dst ~len;
    Bytes.blit model src model dst len
  | Write_byte (a, c) ->
    PM.write_byte mem a c;
    Bytes.set model a c
  | Zero_frame f ->
    PM.zero_frame mem f;
    scrub (model, undo) f
  | Zero_range (a, n) ->
    PM.zero_range mem ~addr:a ~len:n;
    Bytes.fill model a n '\000'
  | Discard_frame f ->
    PM.discard_frame mem f;
    scrub (model, undo) f
  | Restore_range (a, s) ->
    PM.restore_range mem ~addr:a s;
    Bytes.blit_string s 0 model a (String.length s)
  | Write_persistent (a, s) ->
    PM.write_persistent mem ~addr:a s;
    persist (model, undo) a s 0 (String.length s)
  | Write_persistent_sub (a, s, pos, len) ->
    PM.write_persistent_sub mem ~addr:a (Bytes.of_string s) ~pos ~len;
    persist (model, undo) a s pos len
  | Flush (a, n, torn) ->
    if torn then Sim.Fault_inject.arm plane ~site:Sim.Fault_inject.site_nvm_torn_line Sim.Fault_inject.Always;
    PM.flush mem ~addr:a ~len:n;
    Sim.Fault_inject.disarm plane ~site:Sim.Fault_inject.site_nvm_torn_line;
    for l = (a / line) + Bool.to_int torn to (a + n - 1) / line do
      Hashtbl.remove undo l
    done
  | Fence -> PM.fence mem
  | Crash ->
    Hashtbl.iter (fun l image -> Bytes.blit_string image 0 model (l * line) line) undo;
    Hashtbl.reset undo;
    PM.crash mem;
    Bytes.fill model 0 (PM.dram_frames mem * Sim.Units.page_size) '\000'

(* A read into a longer buffer fills exactly its own range. *)
let reads_back mem (model, _) = function
  | Read_into (a, len, pos) ->
    let dst = Bytes.make (pos + len + 8) '?' in
    PM.read_into mem ~addr:a ~len dst ~pos;
    Bytes.equal (Bytes.sub dst pos len) (Bytes.sub model a len)
    && Bytes.for_all (( = ) '?') (Bytes.sub dst 0 pos)
    && Bytes.for_all (( = ) '?') (Bytes.sub dst (pos + len) 8)
  | _ -> true

(* A read covers every frame in one call; the per-frame
   non-zero counts give frame_is_zero and resident_bytes. *)
let agrees mem (model, undo) =
  let page = Sim.Units.page_size in
  let counts =
    Array.init model_frames (fun f ->
        let n = ref 0 in
        (* Eight bytes per load: most of the model is zero. *)
        for w = f * page / 8 to ((f + 1) * page / 8) - 1 do
          if Bytes.get_int64_ne model (8 * w) <> 0L then
            for a = 8 * w to (8 * w) + 7 do
              if Bytes.get model a <> '\000' then incr n
            done
        done;
        !n)
  in
  Bytes.equal (PM.read mem ~addr:0 ~len:model_bytes) model
  && Array.for_all Fun.id (Array.mapi (fun f n -> PM.frame_is_zero mem f = (n = 0)) counts)
  && PM.resident_bytes mem = Array.fold_left ( + ) 0 counts
  && PM.unflushed_lines mem = Hashtbl.length undo

let prop_matches_model =
  qtest "phys_mem matches a flat byte model" ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(
      map List.concat
        (list_size (int_range 1 30) (frequency [ (8, map (fun op -> [ op ]) op_gen); (1, one_byte_gen) ])))
    (fun ops ->
      let page = Sim.Units.page_size in
      let clock, stats = mk_env () in
      let trace = Sim.Trace.create ~clock () in
      let plane = Sim.Fault_inject.create ~seed:1 () in
      Sim.Trace.attach_faults trace plane;
      let mem = PM.create ~clock ~stats ~trace ~dram_bytes:(4 * page) ~nvm_bytes:(4 * page) () in
      let model = (Bytes.make model_bytes '\000', Hashtbl.create 16) in
      List.for_all
        (fun op ->
          apply (mem, plane) model op;
          reads_back mem model op && agrees mem model)
        ops)

(* A frame whose only non-zero byte came from a byte write keeps it
   inline: 1,024 frames written once each cost the host a few words
   apiece, where a 4 KiB buffer each cost at least 513. A second byte
   gives the frame its buffer, and zeroing leaves nothing resident. *)
let test_one_byte_frames_inline () =
  let mem = mk_mem () in
  let first = 100 and frames = 1024 in
  let addr f = Frame.to_addr f + (f * 37 mod Sim.Units.page_size) in
  let byte f = Char.chr (1 + (f mod 255)) in
  let words () = Obj.reachable_words (Obj.repr mem) in
  let w0 = words () in
  for f = first to first + frames - 1 do
    PM.write_byte mem (addr f) (byte f)
  done;
  let per_frame = float_of_int (words () - w0) /. float_of_int frames in
  check_bool (Printf.sprintf "%.2f words per one-byte frame <= 16" per_frame) true (per_frame <= 16.);
  let all = PM.read mem ~addr:(Frame.to_addr first) ~len:(frames * Sim.Units.page_size) in
  for f = first to first + frames - 1 do
    check_bool "read_byte reads the byte back" true (PM.read_byte mem (addr f) = byte f);
    check_bool "read reads the byte back" true (Bytes.get all (addr f - Frame.to_addr first) = byte f)
  done;
  check_int "read holds nothing else" frames (Bytes.fold_left (fun n c -> n + Bool.to_int (c <> '\000')) 0 all);
  let second = Frame.to_addr first + 5 in
  let w1 = words () in
  PM.write_byte mem second 'q';
  check_bool "a second byte takes a buffer" true (words () - w1 >= Sim.Units.page_size / 8);
  check_bool "first byte kept" true (PM.read_byte mem (addr first) = byte first);
  check_bool "second byte" true (PM.read_byte mem second = 'q');
  check_string "both read back" (Printf.sprintf "q%c" (byte first))
    (let b = PM.read mem ~addr:(Frame.to_addr first) ~len:Sim.Units.page_size in
     String.of_seq (Seq.filter (( <> ) '\000') (Bytes.to_seq b)));
  for f = first to first + frames - 1 do
    PM.zero_frame mem f;
    check_bool "zeroed frame is zero" true (PM.frame_is_zero mem f)
  done;
  check_int "nothing resident" 0 (PM.resident_bytes mem)

let suite =
  [
    Alcotest.test_case "frame: address arithmetic" `Quick test_frame_arith;
    Alcotest.test_case "phys_mem: create validation" `Quick test_create_validation;
    Alcotest.test_case "phys_mem: regions" `Quick test_regions;
    Alcotest.test_case "phys_mem: byte read/write" `Quick test_read_write_bytes;
    Alcotest.test_case "phys_mem: bulk read/write" `Quick test_bulk_read_write;
    Alcotest.test_case "phys_mem: access costs by region" `Quick test_access_charges;
    Alcotest.test_case "phys_mem: bulk streaming charge" `Quick test_bulk_charges_per_line;
    Alcotest.test_case "phys_mem: copy charges a read, then a write" `Quick test_copy_charges_read_then_write;
    Alcotest.test_case "phys_mem: zero_frame" `Quick test_zero_frame;
    Alcotest.test_case "phys_mem: out of range" `Quick test_out_of_range;
    Alcotest.test_case "phys_mem: crash semantics" `Quick test_crash_drops_dram_keeps_nvm;
    Alcotest.test_case "phys_mem: discard is free" `Quick test_discard_no_cost;
    Alcotest.test_case "zero_engine: background pool" `Quick test_zero_engine_pool;
    Alcotest.test_case "zero_engine: budget respected" `Quick test_zero_engine_budget;
    Alcotest.test_case "zero_engine: bulk erase is O(1)" `Quick test_bulk_erase_constant_cost;
    Alcotest.test_case "nvm: flush+fence durability" `Quick test_nvm_flush_fence;
    Alcotest.test_case "nvm: torn unflushed write" `Quick test_nvm_torn_write;
    Alcotest.test_case "nvm: a scrubbed frame drops its undo images" `Quick test_scrub_drops_undo;
    Alcotest.test_case "cache: miss then hit" `Quick test_cache_hit_after_miss;
    Alcotest.test_case "cache: line granularity" `Quick test_cache_same_line_shares;
    Alcotest.test_case "cache: L1 spill caught by L2" `Quick test_cache_capacity_spill_to_l2;
    Alcotest.test_case "cache: dirty write-back counted" `Quick test_cache_dirty_writeback_counted;
    Alcotest.test_case "cache: flush" `Quick test_cache_flush;
    Alcotest.test_case "cache: detach restores flat cost" `Quick test_cache_detach_restores_flat_cost;
    prop_write_read_roundtrip;
    prop_zero_then_read_zero;
    prop_matches_model;
    Alcotest.test_case "phys_mem: a one-byte frame keeps its byte inline" `Quick test_one_byte_frames_inline;
  ]
