type t = { mem : Phys_mem.t; dirty : Frame.t Queue.t; zeroed : Frame.t Queue.t }

(* One erase command is modelled as a fixed device latency, ~1 us: the point
   of E9 is that it does not scale with the extent size. *)
let bulk_erase_cycles = 2000

let create mem = { mem; dirty = Queue.create (); zeroed = Queue.create () }
let put_dirty t frames = List.iter (fun f -> Queue.add f t.dirty) frames
let take_zeroed t = Queue.take_opt t.zeroed

let pspan t name f = Sim.Profile.span (Sim.Trace.profile (Phys_mem.trace t.mem)) name f

let eager_zero t pfn = pspan t "zeroing" @@ fun () -> Phys_mem.zero_frame t.mem pfn

let background_step t ~budget_frames =
  pspan t "background_zero" @@ fun () ->
  let rec loop n =
    if n >= budget_frames then n
    else
      match Queue.take_opt t.dirty with
      | None -> n
      | Some pfn ->
        Phys_mem.zero_frame t.mem pfn;
        Queue.add pfn t.zeroed;
        loop (n + 1)
  in
  loop 0

let bulk_erase t ~first ~count =
  if count < 0 then invalid_arg "Zero_engine.bulk_erase: negative count";
  (* The device clears contents internally (e.g. by dropping a media
     encryption key), so no per-byte CPU cost is charged — only the fixed
     command latency below. *)
  for pfn = first to first + count - 1 do
    if Phys_mem.valid_frame t.mem pfn then Phys_mem.discard_frame t.mem pfn
  done;
  Sim.Clock.charge (Phys_mem.clock t.mem) bulk_erase_cycles;
  Sim.Stats.incr (Phys_mem.stats t.mem) "bulk_erase_cmds"

let pending t = Queue.length t.dirty
let available t = Queue.length t.zeroed
