(* Cross-core causal tracing over the virtual clock.

   The plane collects three things, all fed by components that already
   hold a trace handle (the same attachment pattern as Profile and
   Fault_inject):

   - a causal event graph: nodes are cross-core interaction points
     (IPI send/deliver/ack, migrations, scheduler placements, remote
     NUMA references, reclaim wakeups), edges are the explicit
     happens-before arrows between them;
   - per-core cycle shares (IPI-wait / scheduler / remote-NUMA) plus
     per-core busy cycles, from which the critical-path engine
     decomposes the makespan;
   - telemetry matrices: a per-core-pair IPI latency histogram and a
     NUMA node-pair traffic matrix.

   The critical-path engine treats same-core program order as an
   implicit edge (two nodes on one core are serialized by that core),
   so the longest dependent chain through a per-page shootdown grows
   with the page count while a batched shootdown's stays constant —
   the O(1) claim, machine-checkable on the graph alone.

   Like Trace/Profile, the [disabled] sentinel makes every emission a
   single-branch no-op, and nothing here ever charges the clock. *)

type node = { id : int; core : int; cycle : int; op : string; detail : string }
type edge = { src : int; dst : int; kind : string }
type share = Ipi_wait | Sched | Numa_remote

let share_name = function
  | Ipi_wait -> "ipi_wait"
  | Sched -> "sched"
  | Numa_remote -> "numa_remote"

type t = {
  clock : Clock.t option; (* None = disabled sentinel *)
  mutable nodes : node list; (* newest first *)
  mutable n_nodes : int;
  mutable edges : edge list; (* newest first *)
  mutable n_edges : int;
  busy : (int, int ref) Hashtbl.t; (* core -> cycles attributed *)
  shares : (int * string, int ref) Hashtbl.t; (* (core, share) -> cycles *)
  ipi_latency : (int * int, Histogram.t) Hashtbl.t; (* (src, dst) core pair *)
  numa_traffic : (int * int, int ref) Hashtbl.t; (* (src, dst) node pair -> lines *)
}

let create ~clock () =
  {
    clock = Some clock;
    nodes = [];
    n_nodes = 0;
    edges = [];
    n_edges = 0;
    busy = Hashtbl.create 8;
    shares = Hashtbl.create 16;
    ipi_latency = Hashtbl.create 8;
    numa_traffic = Hashtbl.create 4;
  }

let disabled =
  {
    clock = None;
    nodes = [];
    n_nodes = 0;
    edges = [];
    n_edges = 0;
    busy = Hashtbl.create 1;
    shares = Hashtbl.create 1;
    ipi_latency = Hashtbl.create 1;
    numa_traffic = Hashtbl.create 1;
  }

let enabled t = t.clock <> None
let node_count t = t.n_nodes
let edge_count t = t.n_edges
let nodes t = List.rev t.nodes
let edges t = List.rev t.edges

let reset t =
  t.nodes <- [];
  t.n_nodes <- 0;
  t.edges <- [];
  t.n_edges <- 0;
  Hashtbl.reset t.busy;
  Hashtbl.reset t.shares;
  Hashtbl.reset t.ipi_latency;
  Hashtbl.reset t.numa_traffic

(* ------------------------------ emission ------------------------------ *)

let emit t ~core ~op ?(detail = "") () =
  match t.clock with
  | None -> -1
  | Some clock ->
    let id = t.n_nodes in
    t.nodes <- { id; core; cycle = Clock.now clock; op; detail } :: t.nodes;
    t.n_nodes <- id + 1;
    id

let link t ~src ~dst ~kind =
  match t.clock with
  | None -> ()
  | Some _ ->
    if src >= 0 && dst >= 0 then begin
      t.edges <- { src; dst; kind } :: t.edges;
      t.n_edges <- t.n_edges + 1
    end

let cell tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add tbl key r;
    r

let add_busy t ~core ~cycles =
  match t.clock with
  | None -> ()
  | Some _ -> cell t.busy core := !(cell t.busy core) + cycles

let attribute t ~core ~share ~cycles =
  match t.clock with
  | None -> ()
  | Some _ ->
    let r = cell t.shares (core, share_name share) in
    r := !r + cycles

let observe_ipi t ~src ~dst ~cycles =
  match t.clock with
  | None -> ()
  | Some _ ->
    let h =
      match Hashtbl.find_opt t.ipi_latency (src, dst) with
      | Some h -> h
      | None ->
        let h = Histogram.create () in
        Hashtbl.add t.ipi_latency (src, dst) h;
        h
    in
    Histogram.observe h (max 0 cycles)

let record_numa t ~src_node ~dst_node ~lines =
  match t.clock with
  | None -> ()
  | Some _ -> cell t.numa_traffic (src_node, dst_node) := !(cell t.numa_traffic (src_node, dst_node)) + lines

(* --------------------------- attribution ---------------------------- *)

type breakdown = {
  bd_core : int;
  bd_busy : int;
  work : int;
  ipi_wait : int;
  sched : int;
  numa_remote : int;
}

let share_of t ~core share =
  match Hashtbl.find_opt t.shares (core, share_name share) with Some r -> !r | None -> 0

let busy_of t ~core = match Hashtbl.find_opt t.busy core with Some r -> !r | None -> 0

let breakdown_of t ~core =
  let busy = busy_of t ~core in
  let ipi = share_of t ~core Ipi_wait in
  let sched = share_of t ~core Sched in
  let numa = share_of t ~core Numa_remote in
  (* Work is the remainder of the core's busy cycles once the explicit
     cross-core shares are carved out; a negative remainder (shares
     charged outside any busy attribution) is clamped and shows up as
     attributed_fraction < 1. *)
  {
    bd_core = core;
    bd_busy = busy;
    work = max 0 (busy - ipi - sched - numa);
    ipi_wait = ipi;
    sched;
    numa_remote = numa;
  }

let cores_seen t =
  let set = Hashtbl.create 8 in
  Hashtbl.iter (fun c _ -> Hashtbl.replace set c ()) t.busy;
  Hashtbl.iter (fun (c, _) _ -> if c >= 0 then Hashtbl.replace set c ()) t.shares;
  Hashtbl.fold (fun c () acc -> c :: acc) set [] |> List.sort compare

let breakdowns t = List.map (fun core -> breakdown_of t ~core) (cores_seen t)

let makespan t = List.fold_left (fun acc b -> max acc b.bd_busy) 0 (breakdowns t)

let makespan_core t =
  List.fold_left
    (fun best b -> match best with Some m when m.bd_busy >= b.bd_busy -> best | _ -> Some b)
    None (breakdowns t)

(* Fraction of the makespan core's busy cycles landing in a named share
   (work included). By construction this is 1.0 unless some share was
   charged outside busy attribution — the T1 gate mirrors PR 4's
   profile-attribution gate. *)
let attributed_fraction t =
  match makespan_core t with
  | None -> 1.0
  | Some b ->
    if b.bd_busy = 0 then 1.0
    else
      float_of_int (min b.bd_busy (b.work + b.ipi_wait + b.sched + b.numa_remote))
      /. float_of_int b.bd_busy

(* ------------------------ critical-path engine ------------------------ *)

type chain = { hops : int; cycles : int; path : node list }

(* Longest dependent chain: DP over nodes in id order (ids are emission
   order, and every edge points forward in time), following explicit
   edges plus implicit same-core program order. Nodes with a negative
   core (off-core service points, e.g. a remote NUMA node) take part in
   explicit edges but are not program-order chained. *)
let critical_path t =
  let ns = Array.of_list (nodes t) in
  let n = Array.length ns in
  if n = 0 then { hops = 0; cycles = 0; path = [] }
  else begin
    let incoming = Hashtbl.create (max 16 t.n_edges) in
    List.iter (fun e -> if e.dst < n then Hashtbl.add incoming e.dst e.src) t.edges;
    let best_len = Array.make n 1 in
    let best_pred = Array.make n (-1) in
    let start_cycle = Array.make n 0 in
    let last_on_core = Hashtbl.create 8 in
    for i = 0 to n - 1 do
      start_cycle.(i) <- ns.(i).cycle;
      let consider p =
        if p >= 0 && p < i then begin
          let len = best_len.(p) + 1 in
          if
            len > best_len.(i)
            || (len = best_len.(i) && start_cycle.(p) < start_cycle.(i))
          then begin
            best_len.(i) <- len;
            best_pred.(i) <- p;
            start_cycle.(i) <- start_cycle.(p)
          end
        end
      in
      List.iter consider (Hashtbl.find_all incoming i);
      if ns.(i).core >= 0 then begin
        (match Hashtbl.find_opt last_on_core ns.(i).core with
        | Some p -> consider p
        | None -> ());
        Hashtbl.replace last_on_core ns.(i).core i
      end
    done;
    let tail = ref 0 in
    for i = 1 to n - 1 do
      let better =
        best_len.(i) > best_len.(!tail)
        || (best_len.(i) = best_len.(!tail)
           && ns.(i).cycle - start_cycle.(i) > ns.(!tail).cycle - start_cycle.(!tail))
      in
      if better then tail := i
    done;
    let rec walk i acc = if i < 0 then acc else walk best_pred.(i) (ns.(i) :: acc) in
    {
      hops = best_len.(!tail);
      cycles = ns.(!tail).cycle - start_cycle.(!tail);
      path = walk !tail [];
    }
  end

(* ------------------------------ export ------------------------------- *)

let pair_key a b = Printf.sprintf "%d->%d" a b

let sorted_pairs tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun ((a, b), _) ((c, d), _) -> compare (a, b) (c, d))

let ipi_latency_to_json t =
  Json.Obj
    (List.map
       (fun ((src, dst), h) -> (pair_key src dst, Histogram.to_json h))
       (sorted_pairs t.ipi_latency))

let numa_traffic_to_json t =
  Json.Obj
    (List.map (fun ((s, d), r) -> (pair_key s d, Json.Int !r)) (sorted_pairs t.numa_traffic))

let breakdown_to_json b =
  Json.Obj
    [
      ("busy", Json.Int b.bd_busy);
      ("work", Json.Int b.work);
      ("ipi_wait", Json.Int b.ipi_wait);
      ("sched", Json.Int b.sched);
      ("numa_remote", Json.Int b.numa_remote);
    ]

let node_to_json nd =
  Json.Obj
    ([ ("id", Json.Int nd.id); ("core", Json.Int nd.core); ("cycle", Json.Int nd.cycle);
       ("op", Json.String nd.op) ]
    @ if nd.detail = "" then [] else [ ("detail", Json.String nd.detail) ])

let to_json t =
  let cp = critical_path t in
  Json.Obj
    [
      ("enabled", Json.Bool (enabled t));
      ("nodes", Json.Int t.n_nodes);
      ("edges", Json.Int t.n_edges);
      ( "per_core",
        Json.Obj
          (List.map (fun b -> (Printf.sprintf "core%d" b.bd_core, breakdown_to_json b)) (breakdowns t))
      );
      ("makespan_cycles", Json.Int (makespan t));
      ("attributed_fraction", Json.Float (attributed_fraction t));
      ( "critical_path",
        Json.Obj [ ("hops", Json.Int cp.hops); ("cycles", Json.Int cp.cycles) ] );
      ("ipi_latency", ipi_latency_to_json t);
      ("numa_traffic", numa_traffic_to_json t);
      ("events", Json.List (List.map node_to_json (nodes t)));
      ( "links",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [ ("src", Json.Int e.src); ("dst", Json.Int e.dst); ("kind", Json.String e.kind) ])
             (edges t)) );
    ]

(* Chrome trace-event fragments: every causal node as a zero-duration
   complete event on its core's track (negative cores land on track
   1000-core, keeping off-core service points visible but separate), and
   every causal edge as a flow-event s/f pair (chrome://tracing and
   Perfetto draw these as arrows between tracks). *)
let chrome_tid core = if core >= 0 then core else 1000 - core

let chrome_events t =
  let node_ev nd =
    Json.Obj
      [
        ("name", Json.String nd.op);
        ("cat", Json.String "causal");
        ("ph", Json.String "X");
        ("ts", Json.Int nd.cycle);
        ("dur", Json.Int 0);
        ("pid", Json.Int 1);
        ("tid", Json.Int (chrome_tid nd.core));
        ( "args",
          Json.Obj
            (( "node", Json.Int nd.id)
            :: (if nd.detail = "" then [] else [ ("detail", Json.String nd.detail) ])) );
      ]
  in
  let ns = Array.of_list (nodes t) in
  let flow i (e : edge) =
    if e.src >= Array.length ns || e.dst >= Array.length ns then []
    else
      let s = ns.(e.src) and d = ns.(e.dst) in
      [
        Json.Obj
          [
            ("name", Json.String e.kind);
            ("cat", Json.String "flow");
            ("ph", Json.String "s");
            ("id", Json.Int i);
            ("ts", Json.Int s.cycle);
            ("pid", Json.Int 1);
            ("tid", Json.Int (chrome_tid s.core));
          ];
        Json.Obj
          [
            ("name", Json.String e.kind);
            ("cat", Json.String "flow");
            ("ph", Json.String "f");
            ("bp", Json.String "e");
            ("id", Json.Int i);
            ("ts", Json.Int d.cycle);
            ("pid", Json.Int 1);
            ("tid", Json.Int (chrome_tid d.core));
          ];
      ]
  in
  List.map node_ev (nodes t) @ List.concat (List.mapi flow (edges t))
