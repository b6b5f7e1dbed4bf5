type region = Dram | Nvm

(* Contents are pfn-indexed and sparse. Frames are grouped into chunks
   of [chunk_frames]; a chunk's slots are allocated on the first non-zero
   write to one of its frames. A frame holding a non-zero byte owns a
   4 KiB buffer. When the frame becomes all-zero again, the buffer is
   scrubbed over the span it was written in and goes back on a free
   list, so a later write reuses it instead of allocating. *)
let chunk_bits = 9
let chunk_frames = 1 lsl chunk_bits

type chunk = {
  data : Bytes.t array; (* the frame's buffer, or [no_data] *)
  nonzero : int array; (* non-zero bytes in the buffer *)
  lo : int array; (* every byte of the buffer outside [lo, hi) is zero *)
  hi : int array;
}

let no_data = Bytes.empty
let no_chunk = { data = [||]; nonzero = [||]; lo = [||]; hi = [||] }

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
  let model = Sim.Clock.model t.clock in
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
  let m = model in
  let cost =
    match (region_of_frame t pfn, write, remote) with
    | Dram, _, false ->
      Sim.Stats.add t.stats (if write then "dram_write" else "dram_read") lines;
      m.Sim.Cost_model.mem_ref_dram
    | Dram, _, true ->
      Sim.Stats.add t.stats (if write then "dram_write" else "dram_read") lines;
      m.Sim.Cost_model.mem_ref_dram_remote
    | Nvm, false, false ->
      Sim.Stats.add t.stats "nvm_read" lines;
      m.Sim.Cost_model.mem_ref_nvm_read
    | Nvm, false, true ->
      Sim.Stats.add t.stats "nvm_read" lines;
      m.Sim.Cost_model.mem_ref_nvm_read_remote
    | Nvm, true, false ->
      Sim.Stats.add t.stats "nvm_write" lines;
      m.Sim.Cost_model.mem_ref_nvm_write
    | Nvm, true, true ->
      Sim.Stats.add t.stats "nvm_write" lines;
      m.Sim.Cost_model.mem_ref_nvm_write_remote
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

(* Frame [pfn]'s chunk, once the frame owns a buffer. *)
let writable t pfn =
  let ci = pfn lsr chunk_bits and i = slot pfn in
  if t.chunks.(ci) == no_chunk then
    t.chunks.(ci) <-
      {
        data = Array.make chunk_frames no_data;
        nonzero = Array.make chunk_frames 0;
        lo = Array.make chunk_frames Sim.Units.page_size;
        hi = Array.make chunk_frames 0;
      };
  let c = t.chunks.(ci) in
  if c.data.(i) == no_data then
    c.data.(i) <-
      (if t.nfree = 0 then Bytes.make Sim.Units.page_size '\000'
       else begin
         t.nfree <- t.nfree - 1;
         let b = t.free.(t.nfree) in
         t.free.(t.nfree) <- no_data;
         b
       end);
  c

(* Record that [lo, hi) of slot [i]'s buffer was written. *)
let widen c i ~lo ~hi =
  if lo < c.lo.(i) then c.lo.(i) <- lo;
  if hi > c.hi.(i) then c.hi.(i) <- hi

(* Drop slot [i]'s contents: scrub the written span of its buffer unless
   it is already all-zero, and put the buffer on the free list. *)
let release t c i =
  let b = c.data.(i) in
  if b != no_data then begin
    if c.nonzero.(i) > 0 then Bytes.fill b c.lo.(i) (c.hi.(i) - c.lo.(i)) '\000';
    if t.nfree = Array.length t.free then begin
      let f = Array.make (max 16 (2 * t.nfree)) no_data in
      Array.blit t.free 0 f 0 t.nfree;
      t.free <- f
    end;
    t.free.(t.nfree) <- b;
    t.nfree <- t.nfree + 1;
    c.data.(i) <- no_data;
    c.nonzero.(i) <- 0;
    c.lo.(i) <- Sim.Units.page_size;
    c.hi.(i) <- 0
  end

let release_frame t pfn =
  let c = chunk t pfn in
  if c != no_chunk then release t c (slot pfn)

let peek_byte t addr =
  let b = buffer t (Frame.of_addr addr) in
  if b == no_data then '\000' else Bytes.get b (Frame.offset_in_frame addr)

let poke_byte t addr ch =
  let pfn = Frame.of_addr addr and off = Frame.offset_in_frame addr in
  let i = slot pfn in
  if ch = '\000' then begin
    let c = chunk t pfn in
    if c != no_chunk && c.data.(i) != no_data && Bytes.get c.data.(i) off <> '\000' then begin
      Bytes.set c.data.(i) off '\000';
      c.nonzero.(i) <- c.nonzero.(i) - 1;
      if c.nonzero.(i) = 0 then release t c i
    end
  end
  else begin
    let c = writable t pfn in
    if Bytes.get c.data.(i) off = '\000' then c.nonzero.(i) <- c.nonzero.(i) + 1;
    Bytes.set c.data.(i) off ch;
    widen c i ~lo:off ~hi:(off + 1)
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
    let model = Sim.Clock.model t.clock in
    Sim.Clock.charge t.clock (Sim.Cost_model.copy_cost model ~bytes:len);
    Sim.Stats.add t.stats (if write then "stream_write_lines" else "stream_read_lines") (lines - 1)
  end

(* Blit frame-sized chunks instead of byte-at-a-time host work. *)
let read_raw t ~addr ~len buf =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pfn = Frame.of_addr a in
    let off = Frame.offset_in_frame a in
    let run = min (len - !pos) (Sim.Units.page_size - off) in
    let b = buffer t pfn in
    if b == no_data then Bytes.fill buf !pos run '\000' else Bytes.blit b off buf !pos run;
    pos := !pos + run
  done

let read t ~addr ~len =
  check_addr t addr len;
  charge_bulk t ~addr ~len ~write:false;
  let buf = Bytes.create len in
  read_raw t ~addr ~len buf;
  buf

let peek t ~addr ~len =
  check_addr t addr len;
  let buf = Bytes.create len in
  read_raw t ~addr ~len buf;
  buf

let rec all_zero s ~pos ~stop = pos = stop || (s.[pos] = '\000' && all_zero s ~pos:(pos + 1) ~stop)

let write t ~addr s =
  let len = String.length s in
  check_addr t addr len;
  charge_bulk t ~addr ~len ~write:true;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pfn = Frame.of_addr a in
    let off = Frame.offset_in_frame a in
    let run = min (len - !pos) (Sim.Units.page_size - off) in
    (* Zeros into a frame without a buffer change nothing. *)
    if buffer t pfn != no_data || not (all_zero s ~pos:!pos ~stop:(!pos + run)) then begin
      let c = writable t pfn and i = slot pfn in
      let b = c.data.(i) and n = ref c.nonzero.(i) in
      for k = 0 to run - 1 do
        let old = Bytes.get b (off + k) and ch = s.[!pos + k] in
        if old = '\000' && ch <> '\000' then incr n
        else if old <> '\000' && ch = '\000' then decr n
      done;
      Bytes.blit_string s !pos b off run;
      c.nonzero.(i) <- !n;
      widen c i ~lo:off ~hi:(off + run);
      if !n = 0 then release t c i
    end;
    pos := !pos + run
  done

let touch t addr =
  check_addr t addr 1;
  charge_demand t ~addr ~write:false

let zero_frame t pfn =
  if not (valid_frame t pfn) then invalid_arg "Phys_mem.zero_frame: bad frame";
  release_frame t pfn;
  let model = Sim.Clock.model t.clock in
  Sim.Clock.charge t.clock (Sim.Cost_model.zero_cost model ~bytes:Sim.Units.page_size);
  Sim.Stats.add t.stats "bytes_zeroed" Sim.Units.page_size

let discard_frame t pfn =
  if not (valid_frame t pfn) then invalid_arg "Phys_mem.discard_frame: bad frame";
  release_frame t pfn

let discard_range t ~addr ~len =
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
    end;
    pos := !pos + run
  done

let zero_range t ~addr ~len =
  discard_range t ~addr ~len;
  let model = Sim.Clock.model t.clock in
  Sim.Clock.charge t.clock (Sim.Cost_model.zero_cost model ~bytes:len);
  Sim.Stats.add t.stats "bytes_zeroed" len

let restore_range t ~addr s =
  check_addr t addr (String.length s);
  String.iteri (fun i c -> poke_byte t (addr + i) c) s

let frame_is_zero t pfn =
  let c = chunk t pfn in
  c == no_chunk || c.nonzero.(slot pfn) = 0

let crash t =
  Array.iteri
    (fun ci c ->
      for i = 0 to Array.length c.data - 1 do
        if (ci lsl chunk_bits) + i < t.dram_frames then release t c i
      done)
    t.chunks

let resident_bytes t =
  Array.fold_left (fun acc c -> Array.fold_left ( + ) acc c.nonzero) 0 t.chunks
