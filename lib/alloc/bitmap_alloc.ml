type t = {
  mem : Physmem.Phys_mem.t;
  first : Physmem.Frame.t;
  count : int;
  bits : Bytes.t; (* 1 bit per frame; 1 = allocated *)
  mutable free : int;
  mutable next : int; (* next-fit cursor, index relative to [first] *)
}

let create ~mem ~first ~count =
  if count <= 0 then invalid_arg "Bitmap_alloc.create: empty range";
  { mem; first; count; bits = Bytes.make ((count + 7) / 8) '\000'; free = count; next = 0 }

let get t i = Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i v =
  let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.bits (i lsr 3) (Char.chr byte)

let charge t c = Sim.Clock.charge (Physmem.Phys_mem.clock t.mem) c

let run_free_at t i count =
  let rec loop j = if j >= count then true else if get t (i + j) then false else loop (j + 1) in
  i + count <= t.count && loop 0

let alloc_contig t ~count =
  if count <= 0 then invalid_arg "Bitmap_alloc.alloc_contig: non-positive count";
  if count > t.free then None
  else begin
    let found = ref None in
    let scanned = ref 0 in
    let i = ref t.next in
    (* Next-fit from the cursor; the budget bounds the scan to two full
       passes, which covers every window even when the cursor sits inside
       the last [count] frames (where a naive wrap test never terminates). *)
    let budget = ref (2 * t.count) in
    while !found = None && !budget > 0 do
      if !i + count > t.count then begin
        budget := !budget - (t.count - !i) - 1;
        i := 0
      end
      else if run_free_at t !i count then found := Some !i
      else begin
        (* Skip past the first allocated frame in the window. *)
        let rec skip j = if j >= !i + count then j else if get t j then j + 1 else skip (j + 1) in
        let next_i = skip !i in
        scanned := !scanned + (next_i - !i);
        budget := !budget - (next_i - !i);
        i := next_i
      end
    done;
    charge t (Sim.Cost_model.bitmap_scan_cost ~frames:(!scanned + count));
    match !found with
    | None -> None
    | Some idx ->
      for j = idx to idx + count - 1 do
        set t j true
      done;
      t.free <- t.free - count;
      t.next <- (if idx + count >= t.count then 0 else idx + count);
      Some (t.first + idx)
  end

let free_range t ~first ~count =
  let idx = first - t.first in
  if idx < 0 || count <= 0 || idx + count > t.count then
    invalid_arg "Bitmap_alloc.free_range: out of range";
  for j = idx to idx + count - 1 do
    if not (get t j) then invalid_arg "Bitmap_alloc.free_range: double free";
    set t j false
  done;
  charge t (Sim.Cost_model.bitmap_scan_cost ~frames:count);
  t.free <- t.free + count

let is_free t pfn =
  let idx = pfn - t.first in
  idx >= 0 && idx < t.count && not (get t idx)

let free_frames t = t.free
let total_frames t = t.count
let utilization t = float_of_int (t.count - t.free) /. float_of_int t.count

let largest_free_run t =
  let best = ref 0 and cur = ref 0 in
  for i = 0 to t.count - 1 do
    if get t i then cur := 0
    else begin
      incr cur;
      if !cur > !best then best := !cur
    end
  done;
  !best

let metadata_bytes t = (t.count + 7) / 8
