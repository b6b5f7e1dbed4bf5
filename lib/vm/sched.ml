(* Round-robin core placement with affinity: processes are handed to the
   next core in rotation whose bit is set in their affinity mask. The
   simulator is sequential, so this is a placement policy (which core's
   TLBs a process warms, where its cycles are attributed), not a
   preemption engine. *)

type t = { cores : int; mutable next : int }

let create ~cores =
  if cores <= 0 then invalid_arg "Sched.create: cores must be positive";
  { cores; next = 0 }

let allowed t ~affinity core = affinity land (1 lsl core) <> 0 && core < t.cores

let pick t ~affinity =
  if affinity land ((1 lsl t.cores) - 1) = 0 then
    invalid_arg "Sched.pick: affinity excludes every core";
  let rec scan i =
    let core = (t.next + i) mod t.cores in
    if allowed t ~affinity core then core else scan (i + 1)
  in
  let core = scan 0 in
  t.next <- (core + 1) mod t.cores;
  core
