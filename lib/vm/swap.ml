type backing = Device | Swapfile of Fs.Memfs.t

type slot = Content of bytes | File_slot of int

type t = {
  mem : Physmem.Phys_mem.t;
  backing : backing;
  slots : (int * int, slot) Hashtbl.t;
  mutable swapfile_ino : int option;
  mutable next_file_slot : int;
  mutable free_file_slots : int list;
}

let create ~mem ?(backing = Device) () =
  {
    mem;
    backing;
    slots = Hashtbl.create 64;
    swapfile_ino = None;
    next_file_slot = 0;
    free_file_slots = [];
  }

let charge t c = Sim.Clock.charge (Physmem.Phys_mem.clock t.mem) c

let swapfile t fs =
  match t.swapfile_ino with
  | Some ino -> ino
  | None ->
    let ino =
      match Fs.Memfs.lookup fs "/swapfile" with
      | Some ino -> ino
      | None -> Fs.Memfs.create_file fs "/swapfile" ~persistence:Fs.Inode.Volatile
    in
    t.swapfile_ino <- Some ino;
    ino

let take_file_slot t fs =
  match t.free_file_slots with
  | s :: rest ->
    t.free_file_slots <- rest;
    s
  | [] ->
    let s = t.next_file_slot in
    t.next_file_slot <- s + 1;
    (* Grow the swapfile to cover the new slot. *)
    Fs.Memfs.extend fs (swapfile t fs) ~bytes_wanted:Sim.Units.page_size;
    s

let swap_out t ~key ~pfn =
  let addr = Physmem.Frame.to_addr pfn in
  let content = Physmem.Phys_mem.read t.mem ~addr ~len:Sim.Units.page_size in
  (match t.backing with
  | Device ->
    charge t Sim.Cost_model.swap_device_op;
    Hashtbl.replace t.slots key (Content content)
  | Swapfile fs ->
    let s = take_file_slot t fs in
    (* A fresh buffer that nothing else holds. *)
    Fs.Memfs.write_file fs (swapfile t fs) ~off:(s * Sim.Units.page_size)
      (Bytes.unsafe_to_string content);
    Hashtbl.replace t.slots key (File_slot s));
  Sim.Stats.incr (Physmem.Phys_mem.stats t.mem) "swap_out"

let swap_in t ~key ~pfn =
  match Hashtbl.find_opt t.slots key with
  | None -> false
  | Some slot ->
    Hashtbl.remove t.slots key;
    let content =
      match slot with
      | Content content ->
        charge t Sim.Cost_model.swap_device_op;
        content
      | File_slot s ->
        let fs = match t.backing with Swapfile fs -> fs | Device -> assert false in
        t.free_file_slots <- s :: t.free_file_slots;
        Fs.Memfs.read_file fs (swapfile t fs) ~off:(s * Sim.Units.page_size) ~len:Sim.Units.page_size
    in
    Physmem.Phys_mem.write_sub t.mem ~addr:(Physmem.Frame.to_addr pfn) content ~pos:0 ~len:(Bytes.length content);
    Sim.Stats.incr (Physmem.Phys_mem.stats t.mem) "swap_in";
    true

(* Asked on every anonymous fault: no hashing while nothing is out. *)
let contains t ~key = Hashtbl.length t.slots > 0 && Hashtbl.mem t.slots key
let slots_used t = Hashtbl.length t.slots

let discard t ~pid ~va ~len =
  if Hashtbl.length t.slots > 0 then
    for i = 0 to (len / Sim.Units.page_size) - 1 do
      let key = (pid, va + (i * Sim.Units.page_size)) in
      (match Hashtbl.find_opt t.slots key with
      | Some (File_slot s) -> t.free_file_slots <- s :: t.free_file_slots
      | Some (Content _) | None -> ());
      Hashtbl.remove t.slots key
    done

(* A crash's recovery unlinks the volatile swapfile: the next swap-out makes one. *)
let clear t =
  Hashtbl.reset t.slots;
  t.swapfile_ino <- None;
  t.next_file_slot <- 0;
  t.free_file_slots <- []

let iter t f = Hashtbl.iter (fun (pid, va) _ -> f ~pid ~va) t.slots
