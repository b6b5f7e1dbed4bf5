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

type t = {
  clock : Clock.t option; (* None = disabled sentinel *)
  ring : event array; (* slots not yet written hold [empty] *)
  mutable recorded : int; (* total events ever recorded, ring or not *)
  latencies : (string, Histogram.t) Hashtbl.t;
  mutable profile : Profile.t; (* call-tree profiler, if attached *)
  mutable faults : Fault_inject.t; (* fault-injection plane, if attached *)
  mutable causal : Causal.t; (* cross-core causal plane, if attached *)
  mutable cur_core : int; (* core executing right now, for event stamping *)
}

let empty = { seq = -1; op = ""; core = 0; start = 0; finish = 0; arg = 0; outcome = "" }

let make clock capacity =
  {
    clock;
    ring = Array.make capacity empty;
    recorded = 0;
    latencies = Hashtbl.create 32;
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

let profile t = t.profile

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

let capacity t = Array.length t.ring
let recorded t = t.recorded
let dropped t = max 0 (t.recorded - Array.length t.ring)

let latency_for t op =
  match Hashtbl.find t.latencies op with
  | h -> h
  | exception Not_found ->
    let h = Histogram.create () in
    Hashtbl.add t.latencies op h;
    h

(* Behind [record] and [span]. Every argument is required, so a call
   boxes no option: the event is its only allocation. *)
let push t clock ~op ~start ~arg ~outcome ~core =
  let finish = Clock.now clock in
  t.ring.(t.recorded mod Array.length t.ring) <-
    { seq = t.recorded; op; core; start; finish; arg; outcome };
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

(* Closed defaults: a site passing neither allocates no option box. A site
   passing ~outcome without ~arg must apply the body directly, not via
   [@@]: skipping ?arg in a partial application allocates a closure. *)
let no_arg _ = 0
let ok _ = "ok"

(* One call feeds every sink: a call-tree frame named [op] (when a
   profiler is attached), then the ring event and the histogram sample.
   The event is recorded inside the frame, so its host cost lands in the
   span that caused it. *)
let span t ~op ?(arg = no_arg) ?(outcome = ok) f =
  match t.clock with
  | None -> f ()
  | Some clock -> (
    let start = Clock.now clock and p = t.profile in
    Profile.enter p op;
    match f () with
    | v ->
      push t clock ~op ~start ~arg:(arg v) ~outcome:(outcome v) ~core:t.cur_core;
      Profile.leave p;
      v
    | exception e ->
      push t clock ~op ~start ~arg:0 ~outcome:"raised" ~core:t.cur_core;
      Profile.leave p;
      raise e)

(* Oldest retained event first. *)
let events t =
  let cap = Array.length t.ring in
  let kept = min t.recorded cap in
  List.init kept (fun i -> t.ring.((t.recorded - kept + i) mod cap))

let latency t op = Hashtbl.find_opt t.latencies op

let ops t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.latencies []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Array.fill t.ring 0 (Array.length t.ring) empty;
  t.recorded <- 0;
  Hashtbl.reset t.latencies

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
   slice on its core's track. Ordering is deterministic even for
   zero-cost ops stamping the same cycle: the monotonic sequence number
   breaks start-cycle ties. *)
let chrome_events t =
  events t
  |> List.sort (fun a b -> compare (a.start, a.seq) (b.start, b.seq))
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
