type region = Dram | Nvm

(* Contents are pfn-indexed and sparse. Frames are grouped into chunks
   of [chunk_frames]; a chunk's slots are allocated on the first non-zero
   write to one of its frames. A frame whose only non-zero byte came
   from a byte write keeps it inline, in [one]; a second non-zero byte,
   a bulk write or a persistent write gives the frame a 4 KiB buffer,
   and the byte moves into it. When the frame becomes all-zero again,
   the buffer is scrubbed and goes back on a free list, so a later
   write reuses it instead of allocating. *)
let chunk_bits = 9
let chunk_frames = 1 lsl chunk_bits

type chunk = {
  data : Bytes.t array; (* the frame's buffer, or [no_data] *)
  one : int array; (* without a buffer: the one non-zero byte, [off lsl 8 lor byte], or 0 *)
  nonzero : int array; (* non-zero bytes in the frame *)
  (* The persistence domain, made on the chunk's first persistent write.
     A frame with unflushed lines owns an undo page from the free list:
     at each such line's offset, the bytes the line held just before its
     first write since its last flush (what the media still holds; a
     crash restores them). The rest of the page is zero. [dirty] marks
     the unflushed lines, two words per frame of 32 lines each. *)
  mutable undo : Bytes.t array;
  mutable dirty : int array;
}

let no_data = Bytes.empty
let no_chunk = { data = [||]; one = [||]; nonzero = [||]; undo = [||]; dirty = [||] }

type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  dram_frames : int;
  nvm_frames : int;
  numa_nodes : int;
  mutable accessor_node : int;
  chunks : chunk array; (* by [pfn lsr chunk_bits], [no_chunk] if never written *)
  mutable free : Bytes.t array; (* scrubbed buffers, [free.(0 .. nfree-1)] *)
  mutable nfree : int;
  mutable cache : Cache_hier.t option;
  mutable unflushed : int; (* lines marked in some chunk's [dirty] *)
}

let create ~clock ~stats ?(trace = Sim.Trace.disabled) ~dram_bytes ~nvm_bytes
    ?(numa_nodes = 1) () =
  if not (Sim.Units.is_aligned dram_bytes ~align:Sim.Units.page_size) then
    invalid_arg "Phys_mem.create: dram_bytes not page-aligned";
  if not (Sim.Units.is_aligned nvm_bytes ~align:Sim.Units.page_size) then
    invalid_arg "Phys_mem.create: nvm_bytes not page-aligned";
  if dram_bytes + nvm_bytes <= 0 then invalid_arg "Phys_mem.create: empty machine";
  if numa_nodes <= 0 then invalid_arg "Phys_mem.create: numa_nodes must be positive";
  let dram_frames = dram_bytes / Sim.Units.page_size
  and nvm_frames = nvm_bytes / Sim.Units.page_size in
  {
    clock;
    stats;
    trace;
    dram_frames;
    nvm_frames;
    numa_nodes;
    accessor_node = 0;
    chunks = Array.make ((dram_frames + nvm_frames + chunk_frames - 1) lsr chunk_bits) no_chunk;
    free = [||];
    nfree = 0;
    cache = None;
    unflushed = 0;
  }

let clock t = t.clock
let stats t = t.stats
let trace t = t.trace
let attach_cache t c = t.cache <- Some c
let detach_cache t = t.cache <- None
let total_frames t = t.dram_frames + t.nvm_frames
let dram_frames t = t.dram_frames
let nvm_frames t = t.nvm_frames
let valid_frame t pfn = pfn >= 0 && pfn < total_frames t

let region_of_frame t pfn =
  if not (valid_frame t pfn) then invalid_arg "Phys_mem.region_of_frame: bad frame";
  if pfn < t.dram_frames then Dram else Nvm

let numa_nodes t = t.numa_nodes

(* DRAM and NVM DIMMs are each partitioned contiguously across the NUMA
   domains, so every node owns a slice of both media. *)
let node_of_frame t pfn =
  if not (valid_frame t pfn) then invalid_arg "Phys_mem.node_of_frame: bad frame";
  if t.numa_nodes = 1 then 0
  else if pfn < t.dram_frames then pfn * t.numa_nodes / t.dram_frames
  else (pfn - t.dram_frames) * t.numa_nodes / t.nvm_frames

let accessor_node t = t.accessor_node

let set_accessor_node t node =
  if node < 0 || node >= t.numa_nodes then invalid_arg "Phys_mem.set_accessor_node: bad node";
  t.accessor_node <- node

(* Flat (cache-less) memory charge for [lines] cache lines; remote-node
   references pay the interconnect-hop price. *)
let charge_access t ~addr ~lines ~write =
  let pfn = Frame.of_addr addr in
  let home = node_of_frame t pfn in
  let remote = home <> t.accessor_node in
  if remote then Sim.Stats.add t.stats "numa_remote_ref" lines;
  let causal = Sim.Trace.causal t.trace in
  let req =
    if remote && Sim.Causal.enabled causal then begin
      Sim.Causal.record_numa causal ~src_node:t.accessor_node ~dst_node:home ~lines;
      Sim.Causal.emit causal
        ~core:(Sim.Trace.current_core t.trace)
        ~op:"numa_req"
        ~detail:(Printf.sprintf "node%d" home)
        ()
    end
    else -1
  in
  let cost =
    match (region_of_frame t pfn, write, remote) with
    | Dram, _, false ->
      Sim.Stats.add t.stats (if write then "dram_write" else "dram_read") lines;
      Sim.Cost_model.mem_ref_dram
    | Dram, _, true ->
      Sim.Stats.add t.stats (if write then "dram_write" else "dram_read") lines;
      Sim.Cost_model.mem_ref_dram_remote
    | Nvm, false, false ->
      Sim.Stats.add t.stats "nvm_read" lines;
      Sim.Cost_model.mem_ref_nvm_read
    | Nvm, false, true ->
      Sim.Stats.add t.stats "nvm_read" lines;
      Sim.Cost_model.mem_ref_nvm_read_remote
    | Nvm, true, false ->
      Sim.Stats.add t.stats "nvm_write" lines;
      Sim.Cost_model.mem_ref_nvm_write
    | Nvm, true, true ->
      Sim.Stats.add t.stats "nvm_write" lines;
      Sim.Cost_model.mem_ref_nvm_write_remote
  in
  Sim.Clock.charge t.clock (lines * cost);
  if req >= 0 then begin
    (* The home node's service point lives off-core (core -1): it joins
       the graph through this edge but never program-order chains. *)
    let serve =
      Sim.Causal.emit causal ~core:(-1) ~op:"numa_serve"
        ~detail:(Printf.sprintf "node%d" home) ()
    in
    Sim.Causal.link causal ~src:req ~dst:serve ~kind:"numa";
    Sim.Causal.attribute causal
      ~core:(Sim.Trace.current_core t.trace)
      ~share:Sim.Causal.Numa_remote ~cycles:(lines * cost)
  end

let lines_covered ~addr ~len =
  if len <= 0 then 0
  else
    let first = addr / 64 and last = (addr + len - 1) / 64 in
    last - first + 1

let slot pfn = pfn land (chunk_frames - 1)

let chunk t pfn = t.chunks.(pfn lsr chunk_bits)

(* Frame [pfn]'s buffer, or [no_data]. *)
let buffer t pfn =
  let c = chunk t pfn in
  if c == no_chunk then no_data else c.data.(slot pfn)

(* Frame [pfn]'s inline byte, [off lsl 8 lor byte], or 0. *)
let inline t pfn =
  let c = chunk t pfn in
  if c == no_chunk then 0 else c.one.(slot pfn)

let byte_of o = Char.unsafe_chr (o land 0xff)

(* Where inline byte [o] falls in the [run] bytes from [off]: its index
   there, or -1. *)
let index_in o ~off ~run =
  let k = (o lsr 8) - off in
  if o <> 0 && k >= 0 && k < run then k else -1

(* A scrubbed buffer, from the free list if it has one. *)
let take_buffer t =
  if t.nfree = 0 then Bytes.make Sim.Units.page_size '\000'
  else begin
    t.nfree <- t.nfree - 1;
    let b = t.free.(t.nfree) in
    t.free.(t.nfree) <- no_data;
    b
  end

(* Put a scrubbed buffer on the free list. *)
let give_buffer t b =
  if t.nfree = Array.length t.free then begin
    let f = Array.make (max 16 (2 * t.nfree)) no_data in
    Array.blit t.free 0 f 0 t.nfree;
    t.free <- f
  end;
  t.free.(t.nfree) <- b;
  t.nfree <- t.nfree + 1

(* Frame [pfn]'s chunk, made on first use. *)
let chunk_of t pfn =
  let ci = pfn lsr chunk_bits in
  if t.chunks.(ci) == no_chunk then
    t.chunks.(ci) <-
      {
        data = Array.make chunk_frames no_data;
        one = Array.make chunk_frames 0;
        nonzero = Array.make chunk_frames 0;
        undo = [||];
        dirty = [||];
      };
  t.chunks.(ci)

(* Frame [pfn]'s chunk, once the frame owns a buffer; its inline byte
   moves into the buffer. *)
let writable t pfn =
  let c = chunk_of t pfn and i = slot pfn in
  if c.data.(i) == no_data then begin
    let b = take_buffer t and o = c.one.(i) in
    if o <> 0 then Bytes.set b (o lsr 8) (byte_of o);
    c.one.(i) <- 0;
    c.data.(i) <- b
  end;
  c

(* Drop slot [i]'s contents: its inline byte, or its buffer, scrubbed
   unless already all-zero and put on the free list. *)
let release t c i =
  let b = c.data.(i) in
  if b != no_data then begin
    if c.nonzero.(i) > 0 then Bytes.fill b 0 Sim.Units.page_size '\000';
    give_buffer t b;
    c.data.(i) <- no_data
  end;
  c.one.(i) <- 0;
  c.nonzero.(i) <- 0

let peek_byte t addr =
  let pfn = Frame.of_addr addr and off = Frame.offset_in_frame addr in
  let b = buffer t pfn and o = inline t pfn in
  if b != no_data then Bytes.get b off else if o lsr 8 = off then byte_of o else '\000'

let poke_byte t addr ch =
  let pfn = Frame.of_addr addr and off = Frame.offset_in_frame addr in
  let i = slot pfn and b = buffer t pfn and o = inline t pfn in
  if b == no_data && (o = 0 || o lsr 8 = off) then begin
    (* No other non-zero byte: this one stays inline. *)
    if ch <> '\000' then begin
      let c = chunk_of t pfn in
      c.one.(i) <- (off lsl 8) lor Char.code ch;
      c.nonzero.(i) <- 1
    end
    else if o <> 0 then release t (chunk t pfn) i
  end
  else if b != no_data || ch <> '\000' then begin
    (* A second non-zero byte gives the frame a buffer. *)
    let c = writable t pfn in
    c.nonzero.(i) <- c.nonzero.(i) + Bool.to_int (ch <> '\000') - Bool.to_int (Bytes.get c.data.(i) off <> '\000');
    Bytes.set c.data.(i) off ch;
    if c.nonzero.(i) = 0 then release t c i
  end

let check_addr t addr len =
  if addr < 0 || len < 0 || Frame.of_addr (addr + max 0 (len - 1)) >= total_frames t then
    invalid_arg "Phys_mem: address out of range"

(* One demand access: through the cache hierarchy when attached. *)
let charge_demand t ~addr ~write =
  match t.cache with
  | None -> charge_access t ~addr ~lines:1 ~write
  | Some cache -> (
    match Cache_hier.access cache ~addr ~write with
    | Cache_hier.Hit _ -> () (* the cache charged its own latency *)
    | Cache_hier.Miss -> charge_access t ~addr ~lines:1 ~write)

let read_byte t addr =
  check_addr t addr 1;
  charge_demand t ~addr ~write:false;
  peek_byte t addr

let write_byte t addr c =
  check_addr t addr 1;
  charge_demand t ~addr ~write:true;
  poke_byte t addr c

(* Bulk accesses stream: one full-latency reference for the first line,
   then sequential-bandwidth cost for the rest (hardware prefetchers hide
   the per-line latency). Single-byte accesses pay the full latency. *)
let charge_bulk t ~addr ~len ~write =
  let lines = lines_covered ~addr ~len in
  charge_access t ~addr ~lines:1 ~write;
  if lines > 1 then begin
    Sim.Clock.charge t.clock (Sim.Cost_model.copy_cost ~bytes:len);
    Sim.Stats.add t.stats (if write then "stream_write_lines" else "stream_read_lines") (lines - 1)
  end

let check_range b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Phys_mem: buffer range out of bounds"

(* Blit frame-sized chunks instead of byte-at-a-time host work. *)
let read_into t ~addr ~len dst ~pos =
  check_addr t addr len;
  check_range dst ~pos ~len;
  charge_bulk t ~addr ~len ~write:false;
  let copied = ref 0 in
  while !copied < len do
    let a = addr + !copied in
    let off = Frame.offset_in_frame a in
    let run = min (len - !copied) (Sim.Units.page_size - off) in
    let b = buffer t (Frame.of_addr a) in
    if b != no_data then Bytes.blit b off dst (pos + !copied) run
    else begin
      let o = inline t (Frame.of_addr a) in
      Bytes.fill dst (pos + !copied) run '\000';
      let k = index_in o ~off ~run in
      if k >= 0 then Bytes.set dst (pos + !copied + k) (byte_of o)
    end;
    copied := !copied + run
  done

let read t ~addr ~len =
  let b = Bytes.create (max 0 len) in
  read_into t ~addr ~len b ~pos:0;
  b

(* Non-zero bytes in an 8-byte word: each byte's top bit is set iff the
   byte is non-zero, and the multiply sums those bits into the top byte.
   Inlined so that the word stays unboxed. *)
let[@inline] nonzero_bytes (w : int64) =
  let top = Int64.logor (Int64.add (Int64.logand w 0x7F7F7F7F7F7F7F7FL) 0x7F7F7F7F7F7F7F7FL) w in
  let ones = Int64.shift_right_logical (Int64.logand top 0x8080808080808080L) 7 in
  Int64.to_int (Int64.shift_right_logical (Int64.mul ones 0x0101010101010101L) 56)

(* How many more non-zero bytes [src.[pos, pos+len)] holds than
   [old.[off, off+len)], eight bytes at a time; [no_data] reads as zeros. *)
let nonzero_delta old off src pos len =
  let fresh = old == no_data in
  let d = ref 0 and k = ref 0 in
  while !k + 8 <= len do
    let n = Bytes.get_int64_ne src (pos + !k) in
    if fresh then d := !d + nonzero_bytes n
    else begin
      let o = Bytes.get_int64_ne old (off + !k) in
      if o <> n then d := !d + nonzero_bytes n - nonzero_bytes o
    end;
    k := !k + 8
  done;
  while !k < len do
    let o = (not fresh) && Bytes.get old (off + !k) <> '\000' in
    d := !d + Bool.to_int (Bytes.get src (pos + !k) <> '\000') - Bool.to_int o;
    incr k
  done;
  !d

(* Copy [src.[pos, pos+len)] to [addr, addr+len), keeping the per-frame
   counts. Charges nothing. *)
let store t ~addr src ~pos ~len =
  let copied = ref 0 in
  while !copied < len do
    let a = addr + !copied in
    let pfn = Frame.of_addr a in
    let off = Frame.offset_in_frame a in
    let run = min (len - !copied) (Sim.Units.page_size - off) in
    (* A bulk write gives a frame its buffer before it meets the inline byte. *)
    if inline t pfn <> 0 then ignore (writable t pfn);
    let b = buffer t pfn in
    let d = nonzero_delta b off src (pos + !copied) run in
    (* Zeros into a frame without a buffer change nothing. *)
    if b != no_data || d > 0 then begin
      let c = writable t pfn and i = slot pfn in
      Bytes.blit src (pos + !copied) c.data.(i) off run;
      c.nonzero.(i) <- c.nonzero.(i) + d;
      if c.nonzero.(i) = 0 then release t c i
    end;
    copied := !copied + run
  done

let write_sub t ~addr src ~pos ~len =
  check_addr t addr len;
  check_range src ~pos ~len;
  charge_bulk t ~addr ~len ~write:true;
  store t ~addr src ~pos ~len

(* [write_sub] only reads its source. *)
let write t ~addr s = write_sub t ~addr (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let zero_page = Bytes.make Sim.Units.page_size '\000' (* only ever read *)

(* Charged as [read_into] then [write_sub]; each run goes from the source
   frame's buffer straight into the destination. A source without a
   buffer lends zeros, then its inline byte, read before the destination
   is written (it may be the same frame). *)
let copy t ~src ~dst ~len =
  check_addr t src len;
  check_addr t dst len;
  if src < dst + len && dst < src + len then invalid_arg "Phys_mem.copy: overlapping ranges";
  charge_bulk t ~addr:src ~len ~write:false;
  charge_bulk t ~addr:dst ~len ~write:true;
  let rec from pos =
    let pfn = Frame.of_addr (src + pos) and off = Frame.offset_in_frame (src + pos) in
    let b = buffer t pfn and o = inline t pfn in
    let run = min (len - pos) (Sim.Units.page_size - off) in
    store t ~addr:(dst + pos) (if b == no_data then zero_page else b) ~pos:off ~len:run;
    let k = index_in o ~off ~run in
    if k >= 0 then poke_byte t (dst + pos + k) (byte_of o);
    if pos + run < len then from (pos + run)
  in
  if len > 0 then from 0

let touch t addr =
  check_addr t addr 1;
  charge_demand t ~addr ~write:false

let zero_range t ~addr ~len =
  check_addr t addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pfn = Frame.of_addr a in
    let off = Frame.offset_in_frame a in
    let run = min (len - !pos) (Sim.Units.page_size - off) in
    let c = chunk t pfn and i = slot pfn in
    if c != no_chunk && c.data.(i) != no_data then begin
      let b = c.data.(i) in
      for k = off to off + run - 1 do
        if Bytes.get b k <> '\000' then c.nonzero.(i) <- c.nonzero.(i) - 1
      done;
      Bytes.fill b off run '\000';
      if c.nonzero.(i) = 0 then release t c i
    end
    else if c != no_chunk && index_in c.one.(i) ~off ~run >= 0 then release t c i;
    pos := !pos + run
  done;
  Sim.Clock.charge t.clock (Sim.Cost_model.zero_cost ~bytes:len);
  Sim.Stats.add t.stats "bytes_zeroed" len

let restore_range t ~addr s =
  check_addr t addr (String.length s);
  store t ~addr (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let frame_is_zero t pfn =
  let c = chunk t pfn in
  c == no_chunk || c.nonzero.(slot pfn) = 0

(* --- the persistence domain ------------------------------------------ *)

let line_bytes = 64
let lines_per_frame = Sim.Units.page_size / line_bytes

(* Line [l] of slot [i] is bit [l mod 32] of word [2i + l/32] of [dirty]. *)
let dirty_word i l = (i lsl 1) lor (l lsr 5)
let dirty_bit l = 1 lsl (l land 31)
let is_dirty c i l = c.dirty.(dirty_word i l) land dirty_bit l <> 0

(* Line [l] of slot [i] is flushed or forgotten: its undo bytes are
   scrubbed, and the page goes back once no line of the frame needs it. *)
let clear_line t c i l =
  c.dirty.(dirty_word i l) <- c.dirty.(dirty_word i l) lxor dirty_bit l;
  t.unflushed <- t.unflushed - 1;
  Bytes.fill c.undo.(i) (l * line_bytes) line_bytes '\000';
  if c.dirty.(dirty_word i 0) lor c.dirty.(dirty_word i 32) = 0 then begin
    give_buffer t c.undo.(i);
    c.undo.(i) <- no_data
  end

(* Forget slot [i]'s unflushed lines. *)
let drop_undo t c i =
  if Array.length c.undo > 0 && c.undo.(i) != no_data then
    for l = 0 to lines_per_frame - 1 do
      if is_dirty c i l then clear_line t c i l
    done

(* A scrubbed frame's lines are no longer anyone's: a crash must not put
   a former owner's undo images back over what the next owner writes. *)
let scrub t pfn =
  let c = chunk t pfn in
  if c != no_chunk then begin
    drop_undo t c (slot pfn);
    release t c (slot pfn)
  end

let zero_frame t pfn =
  if not (valid_frame t pfn) then invalid_arg "Phys_mem.zero_frame: bad frame";
  scrub t pfn;
  Sim.Clock.charge t.clock (Sim.Cost_model.zero_cost ~bytes:Sim.Units.page_size);
  Sim.Stats.add t.stats "bytes_zeroed" Sim.Units.page_size

let discard_frame t pfn =
  if not (valid_frame t pfn) then invalid_arg "Phys_mem.discard_frame: bad frame";
  scrub t pfn

(* Make [line] unflushed: unless it already is, its undo image takes the
   bytes it holds now. *)
let keep_image t line =
  let addr = line * line_bytes in
  let pfn = Frame.of_addr addr in
  let c = chunk_of t pfn and i = slot pfn and off = Frame.offset_in_frame addr in
  if Array.length c.dirty = 0 then begin
    c.undo <- Array.make chunk_frames no_data;
    c.dirty <- Array.make (2 * chunk_frames) 0
  end;
  let l = off / line_bytes in
  if not (is_dirty c i l) then begin
    c.dirty.(dirty_word i l) <- c.dirty.(dirty_word i l) lor dirty_bit l;
    t.unflushed <- t.unflushed + 1;
    if c.undo.(i) == no_data then c.undo.(i) <- take_buffer t;
    if c.one.(i) <> 0 then ignore (writable t pfn);
    if c.data.(i) != no_data then Bytes.blit c.data.(i) off c.undo.(i) off line_bytes
  end

(* Whether [line] was unflushed; it is not from here on. *)
let clean t line =
  let addr = line * line_bytes in
  let pfn = Frame.of_addr addr in
  valid_frame t pfn
  &&
  let c = chunk t pfn and i = slot pfn and l = Frame.offset_in_frame addr / line_bytes in
  Array.length c.dirty > 0
  && is_dirty c i l
  && begin
    clear_line t c i l;
    true
  end

let write_persistent_sub t ~addr src ~pos ~len =
  check_addr t addr len;
  check_range src ~pos ~len;
  if len > 0 then
    for line = addr / line_bytes to (addr + len - 1) / line_bytes do
      keep_image t line
    done;
  write_sub t ~addr src ~pos ~len

let write_persistent t ~addr s =
  write_persistent_sub t ~addr (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* An injected media fault: one bit of a line being flushed flips, so
   the damage is durable from here on. *)
let flip_bit t plane line =
  let i = Sim.Fault_inject.rand_int plane line_bytes in
  let bit = Sim.Fault_inject.rand_int plane 8 in
  let addr = (line * line_bytes) + i in
  poke_byte t addr (Char.chr (Char.code (peek_byte t addr) lxor (1 lsl bit)))

let flush t ~addr ~len =
  if len > 0 then begin
    let plane = Sim.Trace.faults t.trace in
    let first = addr / line_bytes and last = (addr + len - 1) / line_bytes in
    (* Torn line: the first dirty line of this flush silently stays in the
       cache hierarchy, and a later crash reverts it. *)
    let first =
      if Sim.Fault_inject.fires plane ~site:Sim.Fault_inject.site_nvm_torn_line then first + 1
      else first
    in
    for line = first to last do
      if clean t line then begin
        if Sim.Fault_inject.fires plane ~site:Sim.Fault_inject.site_nvm_bit_flip then
          flip_bit t plane line;
        Sim.Clock.charge t.clock Sim.Cost_model.mem_ref_nvm_write;
        Sim.Stats.incr t.stats "clwb"
      end
    done;
    (* One durable-step boundary per clwb batch: power can fail here. *)
    if Sim.Fault_inject.fires plane ~site:Sim.Fault_inject.site_durable_step then
      raise (Sim.Fault_inject.Injected_crash "clwb")
  end

let fence t =
  Sim.Clock.charge t.clock Sim.Cost_model.sfence;
  Sim.Stats.incr t.stats "sfence";
  if Sim.Fault_inject.fires (Sim.Trace.faults t.trace) ~site:Sim.Fault_inject.site_durable_step then
    raise (Sim.Fault_inject.Injected_crash "sfence")

let unflushed_lines t = t.unflushed

let crash t =
  Array.iteri
    (fun ci c ->
      if Array.length c.undo > 0 then
        for i = 0 to chunk_frames - 1 do
          let u = c.undo.(i) in
          if u != no_data then
            for l = 0 to lines_per_frame - 1 do
              if is_dirty c i l then begin
                let off = l * line_bytes in
                store t ~addr:(Frame.to_addr ((ci lsl chunk_bits) + i) + off) u ~pos:off ~len:line_bytes;
                clear_line t c i l
              end
            done
        done)
    t.chunks;
  Array.iteri
    (fun ci c ->
      for i = 0 to Array.length c.data - 1 do
        if (ci lsl chunk_bits) + i < t.dram_frames then release t c i
      done)
    t.chunks

let resident_bytes t =
  Array.fold_left (fun acc c -> Array.fold_left ( + ) acc c.nonzero) 0 t.chunks
