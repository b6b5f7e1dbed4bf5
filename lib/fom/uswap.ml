type t = {
  fom : Fom.t;
  proc : Os.Proc.t;
  ino : int;
  base : int;
  len : int;
  window : int;
  resident : int Queue.t; (* page indices, oldest first *)
  mutable faults : int;
  mutable evictions : int;
  mutable writebacks : int;
}

let page = Sim.Units.page_size

let kernel t = Fom.kernel t.fom
let fs t = Fom.fs t.fom

let evict_one t =
  match Queue.take_opt t.resident with
  | None -> ()
  | Some idx ->
    let va = t.base + (idx * page) in
    let table = Os.Address_space.page_table t.proc.Os.Proc.aspace in
    (match Hw.Page_table.lookup table ~va with
    | Some (pa, leaf) when leaf.Hw.Page_table.dirty ->
      (* Write the page back to the backing file before dropping it. *)
      let content = Physmem.Phys_mem.read (Os.Kernel.mem (kernel t)) ~addr:pa ~len:page in
      Fs.Memfs.write_file (fs t) t.ino ~off:(idx * page) (Bytes.unsafe_to_string content);
      t.writebacks <- t.writebacks + 1
    | _ -> ());
    ignore (Os.Kernel.user_page_release (kernel t) t.proc ~va);
    t.evictions <- t.evictions + 1

let create fom proc ~backing_path ~window_pages =
  if window_pages <= 0 then invalid_arg "Uswap.create: empty window";
  let fs = Fom.fs fom in
  let ino =
    match Fs.Memfs.lookup fs backing_path with
    | Some ino -> ino
    | None -> invalid_arg ("Uswap.create: no such backing file: " ^ backing_path)
  in
  let node = Fs.Memfs.inode fs ino in
  let len = Sim.Units.round_up node.Fs.Inode.size ~align:page in
  if len = 0 then invalid_arg "Uswap.create: empty backing file";
  Fs.Memfs.open_file fs ino;
  let base = Os.Address_space.alloc_va proc.Os.Proc.aspace ~len ~align:page in
  let t =
    {
      fom;
      proc;
      ino;
      base;
      len;
      window = window_pages;
      resident = Queue.create ();
      faults = 0;
      evictions = 0;
      writebacks = 0;
    }
  in
  let handler ~va ~write =
    ignore write;
    let idx = (va - base) / page in
    if Queue.length t.resident >= t.window then evict_one t;
    t.faults <- t.faults + 1;
    Queue.add idx t.resident;
    let content = Fs.Memfs.read_file (Fom.fs fom) ino ~off:(idx * page) ~len:page in
    Os.Userfault.Provide (Bytes.unsafe_to_string content)
  in
  Os.Userfault.register (Os.Kernel.userfault (Fom.kernel fom)) ~pid:proc.Os.Proc.pid ~va:base
    ~len ~prot:Hw.Prot.rw handler;
  t

let read_byte t ~off =
  if off < 0 || off >= t.len then invalid_arg "Uswap.read_byte: out of range";
  let va = t.base + off in
  Os.Kernel.access (kernel t) t.proc ~va ~write:false;
  (* The access is now resident: read the byte through the translation. *)
  let table = Os.Address_space.page_table t.proc.Os.Proc.aspace in
  match Hw.Page_table.lookup table ~va with
  | Some (pa, _) -> Physmem.Phys_mem.read_byte (Os.Kernel.mem (kernel t)) pa
  | None -> assert false

let write_byte t ~off c =
  if off < 0 || off >= t.len then invalid_arg "Uswap.write_byte: out of range";
  let va = t.base + off in
  Os.Kernel.access (kernel t) t.proc ~va ~write:true;
  let table = Os.Address_space.page_table t.proc.Os.Proc.aspace in
  match Hw.Page_table.lookup table ~va with
  | Some (pa, _) -> Physmem.Phys_mem.write_byte (Os.Kernel.mem (kernel t)) pa c
  | None -> assert false

let resident_pages t = Queue.length t.resident
let faults t = t.faults
let evictions t = t.evictions
let writebacks t = t.writebacks

let destroy t =
  while not (Queue.is_empty t.resident) do
    evict_one t
  done;
  Os.Userfault.unregister (Os.Kernel.userfault (kernel t)) ~pid:t.proc.Os.Proc.pid ~va:t.base;
  Fs.Memfs.close_file (fs t) t.ino
