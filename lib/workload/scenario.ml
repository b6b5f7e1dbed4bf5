type op =
  | Compute of int
  | Alloc of { slot : int; bytes : int }
  | Touch of { slot : int; write : bool }
  | Free of int

type app = { name : string; script : op list }

let desktop_mix ~rng ~apps ~steps =
  List.init apps (fun a ->
      let live = Hashtbl.create 8 in
      let next_slot = ref 0 in
      let ops = ref [] in
      for _ = 1 to steps do
        match Sim.Rng.int rng 10 with
        | 0 | 1 | 2 | 3 ->
          (* compute burst, 5-50 us *)
          ops := Compute (Sim.Rng.int_in rng ~lo:10_000 ~hi:100_000) :: !ops
        | 4 | 5 ->
          let slot = !next_slot in
          incr next_slot;
          let lg = 14.0 +. (Sim.Rng.float rng *. 8.0) (* 16KiB..4MiB *) in
          let bytes = int_of_float (2.0 ** lg) in
          Hashtbl.replace live slot ();
          ops := Alloc { slot; bytes } :: !ops
        | 6 | 7 | 8 -> (
          let slots = Hashtbl.fold (fun s () acc -> s :: acc) live [] in
          match slots with
          | [] -> ops := Compute 5_000 :: !ops
          | _ ->
            let slot = List.nth slots (Sim.Rng.int rng (List.length slots)) in
            ops := Touch { slot; write = Sim.Rng.bool rng } :: !ops)
        | _ -> (
          let slots = Hashtbl.fold (fun s () acc -> s :: acc) live [] in
          match slots with
          | [] -> ops := Compute 5_000 :: !ops
          | _ ->
            let slot = List.nth slots (Sim.Rng.int rng (List.length slots)) in
            Hashtbl.remove live slot;
            ops := Free slot :: !ops)
      done;
      (* Drain leftovers so runs end clean. *)
      Hashtbl.iter (fun s () -> ops := Free s :: !ops) live;
      { name = Printf.sprintf "app%d" a; script = List.rev !ops })

type backend = Baseline | Fom

type result = { sim_us : float; switches : int; faults : int; tlb_misses : int }

type task = {
  proc : Os.Proc.t;
  mutable script : op list;
  slots : (int, [ `Anon of int * int | `Fom of O1mem.Fom.region ]) Hashtbl.t;
}

let step kernel fom backend task op =
  match op with
  | Compute c -> Sim.Clock.charge (Os.Kernel.clock kernel) c
  | Alloc { slot; bytes } -> (
    match backend with
    | Baseline ->
      let va = Os.Kernel.mmap_anon kernel task.proc ~len:bytes ~prot:Hw.Prot.rw ~populate:false in
      Hashtbl.replace task.slots slot (`Anon (va, Sim.Units.round_up bytes ~align:Sim.Units.page_size))
    | Fom ->
      let fom = Option.get fom in
      let r = O1mem.Fom.alloc fom task.proc ~len:bytes ~prot:Hw.Prot.rw () in
      Hashtbl.replace task.slots slot (`Fom r))
  | Touch { slot; write } -> (
    match Hashtbl.find_opt task.slots slot with
    | None -> ()
    | Some (`Anon (va, len)) ->
      ignore (Os.Kernel.access_range kernel task.proc ~va ~len ~write ~stride:Sim.Units.page_size)
    | Some (`Fom r) ->
      let fom = Option.get fom in
      ignore
        (O1mem.Fom.access_range fom task.proc ~va:r.O1mem.Fom.va ~len:r.O1mem.Fom.len ~write
           ~stride:Sim.Units.page_size))
  | Free slot -> (
    match Hashtbl.find_opt task.slots slot with
    | None -> ()
    | Some (`Anon (va, len)) ->
      Os.Kernel.munmap kernel task.proc ~va ~len;
      Hashtbl.remove task.slots slot
    | Some (`Fom r) ->
      let fom = Option.get fom in
      O1mem.Fom.free fom task.proc r;
      Hashtbl.remove task.slots slot)

let run kernel ?fom ~backend ~asids ~quantum (apps : app list) =
  if quantum <= 0 then invalid_arg "Scenario.run: quantum must be positive";
  (match (backend, fom) with
  | Fom, None -> invalid_arg "Scenario.run: FOM backend needs ~fom"
  | _ -> ());
  let clock = Os.Kernel.clock kernel in
  let stats = Os.Kernel.stats kernel in
  let start = Sim.Clock.now clock in
  let faults0 = Sim.Stats.get stats "page_fault" in
  let misses0 = Sim.Stats.get stats "tlb_miss" in
  let tasks =
    List.map
      (fun (a : app) ->
        {
          proc = Os.Kernel.create_process kernel ();
          script = a.script;
          slots = Hashtbl.create 8;
        })
      apps
  in
  let switches = ref 0 in
  let prev = ref None in
  let rec scheduler () =
    let progressed = ref false in
    List.iter
      (fun task ->
        if task.script <> [] then begin
          progressed := true;
          (match !prev with
          | Some last when last != task ->
            Os.Kernel.context_switch kernel ~from_:last.proc ~to_:task.proc ~asids;
            incr switches
          | _ -> ());
          prev := Some task;
          let n = ref 0 in
          while !n < quantum && task.script <> [] do
            (match task.script with
            | op :: rest ->
              task.script <- rest;
              step kernel fom backend task op
            | [] -> ());
            incr n
          done
        end)
      tasks;
    if !progressed then scheduler ()
  in
  scheduler ();
  (* Orderly teardown. *)
  List.iter
    (fun task ->
      Hashtbl.iter
        (fun _ slot ->
          match slot with
          | `Anon (va, len) -> Os.Kernel.munmap kernel task.proc ~va ~len
          | `Fom r -> O1mem.Fom.free (Option.get fom) task.proc r)
        task.slots;
      Os.Kernel.exit_process kernel task.proc)
    tasks;
  {
    sim_us = Sim.Clock.us (Sim.Clock.elapsed clock ~since:start);
    switches = !switches;
    faults = Sim.Stats.get stats "page_fault" - faults0;
    tlb_misses = Sim.Stats.get stats "tlb_miss" - misses0;
  }
