type region = Dram | Nvm

(* Contents are sparse: a 4 KiB host buffer is materialized for a frame
   on its first nonzero write and dropped when it becomes all-zero
   again, so terabyte machines cost nothing until touched. *)
type frame_store = { data : Bytes.t; mutable nonzero : int }

type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  dram_frames : int;
  nvm_frames : int;
  numa_nodes : int;
  mutable accessor_node : int;
  contents : (int, frame_store) Hashtbl.t;
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
  {
    clock;
    stats;
    trace;
    dram_frames = dram_bytes / Sim.Units.page_size;
    nvm_frames = nvm_bytes / Sim.Units.page_size;
    numa_nodes;
    accessor_node = 0;
    contents = Hashtbl.create 1024;
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

let frame_table t pfn = Hashtbl.find_opt t.contents pfn

let frame_table_create t pfn =
  match Hashtbl.find_opt t.contents pfn with
  | Some fr -> fr
  | None ->
    let fr = { data = Bytes.make Sim.Units.page_size '\000'; nonzero = 0 } in
    Hashtbl.add t.contents pfn fr;
    fr

let peek_byte t addr =
  match frame_table t (Frame.of_addr addr) with
  | None -> '\000'
  | Some fr -> Bytes.get fr.data (Frame.offset_in_frame addr)

let poke_byte t addr c =
  let pfn = Frame.of_addr addr in
  if c = '\000' then (
    match frame_table t pfn with
    | None -> ()
    | Some fr ->
      let off = Frame.offset_in_frame addr in
      if Bytes.get fr.data off <> '\000' then begin
        Bytes.set fr.data off '\000';
        fr.nonzero <- fr.nonzero - 1;
        if fr.nonzero = 0 then Hashtbl.remove t.contents pfn
      end)
  else begin
    let fr = frame_table_create t pfn in
    let off = Frame.offset_in_frame addr in
    if Bytes.get fr.data off = '\000' then fr.nonzero <- fr.nonzero + 1;
    Bytes.set fr.data off c
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
    (match frame_table t pfn with
    | Some fr -> Bytes.blit fr.data off buf !pos run
    | None -> Bytes.fill buf !pos run '\000');
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
    (* Fast path: count nonzero delta over the run once. *)
    let fr = frame_table_create t pfn in
    for i = 0 to run - 1 do
      let old = Bytes.get fr.data (off + i) and c = s.[!pos + i] in
      if old = '\000' && c <> '\000' then fr.nonzero <- fr.nonzero + 1
      else if old <> '\000' && c = '\000' then fr.nonzero <- fr.nonzero - 1
    done;
    Bytes.blit_string s !pos fr.data off run;
    if fr.nonzero = 0 then Hashtbl.remove t.contents pfn;
    pos := !pos + run
  done

let touch t addr =
  check_addr t addr 1;
  charge_demand t ~addr ~write:false

let zero_frame t pfn =
  if not (valid_frame t pfn) then invalid_arg "Phys_mem.zero_frame: bad frame";
  Hashtbl.remove t.contents pfn;
  let model = Sim.Clock.model t.clock in
  Sim.Clock.charge t.clock (Sim.Cost_model.zero_cost model ~bytes:Sim.Units.page_size);
  Sim.Stats.add t.stats "bytes_zeroed" Sim.Units.page_size

let discard_frame t pfn =
  if not (valid_frame t pfn) then invalid_arg "Phys_mem.discard_frame: bad frame";
  Hashtbl.remove t.contents pfn

let discard_range t ~addr ~len =
  check_addr t addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pfn = Frame.of_addr a in
    let off = Frame.offset_in_frame a in
    let run = min (len - !pos) (Sim.Units.page_size - off) in
    (match frame_table t pfn with
    | Some fr ->
      let lost = ref 0 in
      for i = 0 to run - 1 do
        if Bytes.get fr.data (off + i) <> '\000' then incr lost
      done;
      Bytes.fill fr.data off run '\000';
      fr.nonzero <- fr.nonzero - !lost;
      if fr.nonzero = 0 then Hashtbl.remove t.contents pfn
    | None -> ());
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
  match frame_table t pfn with None -> true | Some fr -> fr.nonzero = 0

let crash t =
  let doomed = ref [] in
  Hashtbl.iter (fun pfn _ -> if pfn < t.dram_frames then doomed := pfn :: !doomed) t.contents;
  List.iter (Hashtbl.remove t.contents) !doomed

let resident_bytes t = Hashtbl.fold (fun _ fr acc -> acc + fr.nonzero) t.contents 0
