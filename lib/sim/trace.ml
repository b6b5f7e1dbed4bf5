(* Structured tracing: a bounded ring of events plus per-operation latency
   histograms, all in virtual cycles. The [disabled] sentinel lets components
   default a [trace] field to a shared no-op without optional plumbing. *)

type event = {
  seq : int;
  op : string;
  core : int;
  start : int;
  finish : int;
  arg : int;
  outcome : string;
}

(* The ring keeps one array per event field, overwritten in place, so
   recording allocates nothing. Event [seq] sits in slot
   [seq mod capacity]. *)
type t = {
  clock : Clock.t option; (* None = disabled sentinel *)
  ops : string array;
  cores : int array;
  starts : int array;
  finishes : int array;
  args : int array;
  outcomes : string array;
  mutable recorded : int; (* total events ever recorded, ring or not *)
  latencies : (string, Histogram.t) Hashtbl.t;
  latency_cache : Histogram.t Name_cache.t; (* cleared with [latencies] *)
  mutable profile : Profile.t; (* call-tree profiler, if attached *)
  mutable faults : Fault_inject.t; (* fault-injection plane, if attached *)
  mutable causal : Causal.t; (* cross-core causal plane, if attached *)
  mutable cur_core : int; (* core executing right now, for event stamping *)
}

let make clock capacity =
  {
    clock;
    ops = Array.make capacity "";
    cores = Array.make capacity 0;
    starts = Array.make capacity 0;
    finishes = Array.make capacity 0;
    args = Array.make capacity 0;
    outcomes = Array.make capacity "";
    recorded = 0;
    latencies = Hashtbl.create 32;
    latency_cache = Name_cache.create (Histogram.create ());
    profile = Profile.disabled;
    faults = Fault_inject.disabled;
    causal = Causal.disabled;
    cur_core = 0;
  }

let create ~clock ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  make (Some clock) capacity

let disabled = make None 0

let enabled t = t.clock <> None

let attach_profile t p =
  if not (enabled t) then invalid_arg "Trace.attach_profile: disabled trace";
  t.profile <- p

let faults t = t.faults
let causal t = t.causal

let attach_causal t c =
  if not (enabled t) then invalid_arg "Trace.attach_causal: disabled trace";
  t.causal <- c

let current_core t = t.cur_core

(* Guarded so the shared [disabled] sentinel never accumulates state
   across unrelated components. *)
let set_core t core = if enabled t then t.cur_core <- core

let capacity t = Array.length t.ops
let recorded t = t.recorded
let dropped t = max 0 (t.recorded - capacity t)

let latency_for t op = Name_cache.find t.latency_cache t.latencies ~make:Histogram.create op

(* Behind [record] and [span]. Every argument is required, so a call
   boxes no option, and the slot is written in place. *)
let push t clock ~op ~start ~arg ~outcome ~core =
  let finish = Clock.now clock in
  let i = t.recorded mod capacity t in
  t.ops.(i) <- op;
  t.cores.(i) <- core;
  t.starts.(i) <- start;
  t.finishes.(i) <- finish;
  t.args.(i) <- arg;
  t.outcomes.(i) <- outcome;
  t.recorded <- t.recorded + 1;
  Histogram.observe (latency_for t op) (max 0 (finish - start))

let record t ~op ~start ?(arg = 0) ?(outcome = "ok") ?core () =
  match t.clock with
  | None -> ()
  | Some clock ->
    push t clock ~op ~start ~arg ~outcome ~core:(match core with Some c -> c | None -> t.cur_core)

let attach_faults t f =
  if not (enabled t) then invalid_arg "Trace.attach_faults: disabled trace";
  t.faults <- f;
  (* Every injection shows up as a zero-length "fault_inject" event whose
     outcome names the site. *)
  Fault_inject.set_reporter f (fun site ->
      match t.clock with
      | None -> ()
      | Some clock -> record t ~op:"fault_inject" ~start:(Clock.now clock) ~outcome:site ())

(* [leave] records the event inside the frame, so its host cost lands in
   the span that caused it. Arguments are required: a site boxes no option. *)
let enter t ~op =
  match t.clock with
  | None -> 0
  | Some clock ->
    let start = Clock.now clock in
    Profile.enter t.profile op;
    start

let leave t ~op ~start ~arg ~outcome =
  match t.clock with
  | None -> ()
  | Some clock ->
    push t clock ~op ~start ~arg ~outcome ~core:t.cur_core;
    Profile.leave t.profile

let leave_raised t ~op ~start = leave t ~op ~start ~arg:0 ~outcome:"raised"

(* Closed defaults: a site passing neither allocates no option box. A site
   passing ~outcome without ~arg must apply the body directly, not via
   [@@]: skipping ?arg in a partial application allocates a closure. *)
let no_arg _ = 0
let ok _ = "ok"

let span t ~op ?(arg = no_arg) ?(outcome = ok) f =
  let start = enter t ~op in
  match f () with
  | v ->
    leave t ~op ~start ~arg:(arg v) ~outcome:(outcome v);
    v
  | exception e ->
    leave_raised t ~op ~start;
    raise e

(* Oldest retained event first, read out of the ring. *)
let events t =
  let kept = min t.recorded (capacity t) in
  List.init kept (fun k ->
      let seq = t.recorded - kept + k in
      let i = seq mod capacity t in
      {
        seq;
        op = t.ops.(i);
        core = t.cores.(i);
        start = t.starts.(i);
        finish = t.finishes.(i);
        arg = t.args.(i);
        outcome = t.outcomes.(i);
      })

let latency t op = Hashtbl.find_opt t.latencies op

let ops t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.latencies []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  t.recorded <- 0;
  Hashtbl.reset t.latencies;
  Name_cache.clear t.latency_cache

let event_to_json e =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("op", Json.String e.op);
      ("core", Json.Int e.core);
      ("start", Json.Int e.start);
      ("end", Json.Int e.finish);
      ("arg", Json.Int e.arg);
      ("outcome", Json.String e.outcome);
    ]

let to_json ?(events_limit = max_int) t =
  let evs = events t in
  let total = List.length evs in
  (* Retained ring events per op: [recorded - in_ring] is how many of an
     op's events wraparound evicted, making dropped-event skew visible
     per operation instead of only in the global [dropped] count. *)
  let in_ring = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace in_ring e.op (1 + Option.value (Hashtbl.find_opt in_ring e.op) ~default:0))
    evs;
  let op_summary k h =
    let hist = match Histogram.to_json h with Json.Obj fields -> fields | other -> [ ("histogram", other) ] in
    Json.Obj
      (hist
      @ [
          ("recorded", Json.Int (Histogram.count h));
          ("in_ring", Json.Int (Option.value (Hashtbl.find_opt in_ring k) ~default:0));
        ])
  in
  let evs =
    if total <= events_limit then evs
    else (* keep the newest [events_limit] events *)
      List.filteri (fun i _ -> i >= total - events_limit) evs
  in
  Json.Obj
    [
      ("enabled", Json.Bool (enabled t));
      ("capacity", Json.Int (capacity t));
      ("recorded", Json.Int t.recorded);
      ("dropped", Json.Int (dropped t));
      ("ops", Json.Obj (List.map (fun (k, h) -> (k, op_summary k h)) (ops t)));
      ("events", Json.List (List.map event_to_json evs));
    ]

(* Chrome trace-event fragments: each retained event as a complete ("X")
   slice on its core's track, in virtual cycles. Viewers rebuild the
   stack from the nesting of slices on a track, so parents come first:
   by start cycle, then the longer slice, then the monotonic sequence
   number, which also orders zero-cost events stamping the same cycle. *)
let chrome_events t =
  events t
  |> List.sort (fun a b -> compare (a.start, b.finish, a.seq) (b.start, a.finish, b.seq))
  |> List.map (fun e ->
         Json.Obj
           [
             ("name", Json.String e.op);
             ("cat", Json.String "trace");
             ("ph", Json.String "X");
             ("ts", Json.Int e.start);
             ("dur", Json.Int (max 0 (e.finish - e.start)));
             ("pid", Json.Int 1);
             ("tid", Json.Int (max 0 e.core));
             ( "args",
               Json.Obj
                 [
                   ("seq", Json.Int e.seq);
                   ("arg", Json.Int e.arg);
                   ("outcome", Json.String e.outcome);
                 ] );
           ])
