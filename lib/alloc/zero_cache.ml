type t = {
  mem : Physmem.Phys_mem.t;
  engine : Physmem.Zero_engine.t;
  frames : Physmem.Frame.t Queue.t;
}

let create ~mem ~engine = { mem; engine; frames = Queue.create () }

let model t = Sim.Clock.model (Physmem.Phys_mem.clock t.mem)

(* Current cached-frame count, as a gauge with deltas (the machine Stats
   is shared). *)
let depth_delta t d =
  if d <> 0 then Sim.Stats.add_gauge (Physmem.Phys_mem.stats t.mem) "zero_cache_depth" d

let take t =
  let stats = Physmem.Phys_mem.stats t.mem in
  if
    Sim.Fault_inject.fires
      (Sim.Trace.faults (Physmem.Phys_mem.trace t.mem))
      ~site:Sim.Fault_inject.site_zero_cache_empty
  then begin
    (* Injected exhaustion: pretend the cache is dry so callers exercise
       their slow path. *)
    Sim.Stats.incr stats "zero_cache_miss";
    None
  end
  else
    match Queue.take_opt t.frames with
    | Some frame ->
      (* The O(1) handout: one pop, no zeroing on the critical path. *)
      Sim.Trace.span (Physmem.Phys_mem.trace t.mem) ~op:"zero_cache_pop" @@ fun () ->
      Sim.Clock.charge (Physmem.Phys_mem.clock t.mem) (model t).Sim.Cost_model.zero_cache_pop;
      Sim.Stats.incr stats "zero_cache_hit";
      depth_delta t (-1);
      Some frame
    | None ->
      Sim.Stats.incr stats "zero_cache_miss";
      None

let refill t ~budget_frames =
  let zeroed = Physmem.Zero_engine.background_step t.engine ~budget_frames in
  let rec drain n =
    match Physmem.Zero_engine.take_zeroed t.engine with
    | Some frame ->
      Queue.push frame t.frames;
      drain (n + 1)
    | None -> n
  in
  depth_delta t (drain 0);
  zeroed

let depth t = Queue.length t.frames
let iter t f = Queue.iter f t.frames
