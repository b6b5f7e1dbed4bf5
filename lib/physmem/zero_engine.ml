type t = { mem : Phys_mem.t; dirty : Frame.t Queue.t; zeroed : Frame.t Queue.t }

(* One erase command is modelled as a fixed device latency, ~1 us: the point
   of E9 is that it does not scale with the extent size. *)
let bulk_erase_cycles = 2000

let create mem = { mem; dirty = Queue.create (); zeroed = Queue.create () }
let put_dirty t ~first ~count =
  for pfn = first to first + count - 1 do
    Queue.add pfn t.dirty
  done

(* The pool's level, as deltas on a gauge of the machine's shared Stats. *)
let depth_delta t d =
  if d <> 0 then Sim.Stats.add_gauge (Phys_mem.stats t.mem) "zero_cache_depth" d

let pop t =
  depth_delta t (-1);
  Queue.take t.zeroed

(* The O(1) handout: one pop, no zeroing on the critical path. The
   injection site pretends the pool is dry so callers exercise their slow
   path. Closure-free span: it runs on the fault path. *)
let take t =
  let stats = Phys_mem.stats t.mem and trace = Phys_mem.trace t.mem in
  if
    Sim.Fault_inject.fires (Sim.Trace.faults trace) ~site:Sim.Fault_inject.site_zero_cache_empty
    || Queue.is_empty t.zeroed
  then begin
    Sim.Stats.incr stats "zero_cache_miss";
    None
  end
  else begin
    let start = Sim.Trace.enter trace ~op:"zero_cache_pop" in
    let clock = Phys_mem.clock t.mem in
    Sim.Clock.charge clock (Sim.Clock.model clock).Sim.Cost_model.zero_cache_pop;
    Sim.Stats.incr stats "zero_cache_hit";
    Sim.Trace.leave trace ~op:"zero_cache_pop" ~start ~arg:0 ~outcome:"ok";
    Some (pop t)
  end

(* Closure-free spans: all three run on the fault path. *)
let eager_zero t pfn =
  let trace = Phys_mem.trace t.mem in
  let start = Sim.Trace.enter trace ~op:"zeroing" in
  match Phys_mem.zero_frame t.mem pfn with
  | () -> Sim.Trace.leave trace ~op:"zeroing" ~start ~arg:0 ~outcome:"ok"
  | exception e ->
    Sim.Trace.leave_raised trace ~op:"zeroing" ~start;
    raise e

let rec zero_pending t ~budget_frames n =
  if n >= budget_frames || Queue.is_empty t.dirty then n
  else begin
    let pfn = Queue.take t.dirty in
    Phys_mem.zero_frame t.mem pfn;
    Queue.add pfn t.zeroed;
    zero_pending t ~budget_frames (n + 1)
  end

let background_step t ~budget_frames =
  let trace = Phys_mem.trace t.mem in
  let start = Sim.Trace.enter trace ~op:"background_zero" in
  match zero_pending t ~budget_frames 0 with
  | n ->
    Sim.Trace.leave trace ~op:"background_zero" ~start ~arg:n ~outcome:"ok";
    depth_delta t n;
    n
  | exception e ->
    Sim.Trace.leave_raised trace ~op:"background_zero" ~start;
    raise e

let launder t =
  if Queue.is_empty t.dirty then
    (* Nothing to launder: a pooled frame, uncharged, is the last clean
       memory a forced miss can still reach. *)
    if Queue.is_empty t.zeroed then None else Some (pop t)
  else begin
    let trace = Phys_mem.trace t.mem in
    let start = Sim.Trace.enter trace ~op:"background_zero" in
    let pfn = Queue.take t.dirty in
    match Phys_mem.zero_frame t.mem pfn with
    | () ->
      Sim.Trace.leave trace ~op:"background_zero" ~start ~arg:1 ~outcome:"ok";
      Some pfn
    | exception e ->
      Sim.Trace.leave_raised trace ~op:"background_zero" ~start;
      raise e
  end

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

let iter_free t f =
  Queue.iter f t.dirty;
  Queue.iter f t.zeroed

let pending t = Queue.length t.dirty
let available t = Queue.length t.zeroed
