(** Per-page kernel metadata — the simulator's [struct page].

    The paper counts 25 flags and 38 fields in Linux's page structure and
    argues most of it is unnecessary with ample persistent memory. We
    model the flags the baseline VM actually exercises plus the full
    space cost (64 bytes per 4 KiB page). Host-side there is no per-frame
    record: flags, refcount, mapcount and reclaim-list chain heads live
    in pfn-indexed int arrays, one set per chunk of 512 frames, made on
    the chunk's first update. A
    frame of an untouched chunk reads zero everywhere and costs nothing;
    reading it allocates nothing. The boot-time initialisation cost and
    the steady-state space cost are still computed over all frames, as on
    a real machine. *)

type flag = Uptodate | Lru | Active | Head | Swapbacked | Unevictable | Mlocked | Pinned

type t

val create : clock:Sim.Clock.t -> stats:Sim.Stats.t -> frames:int -> t

val get_flag : t -> Physmem.Frame.t -> flag -> bool
val set_flag : t -> Physmem.Frame.t -> flag -> bool -> unit
(** Each flag update charges a small metadata-write cost. *)

val refcount : t -> Physmem.Frame.t -> int
val get_page : t -> Physmem.Frame.t -> unit
(** Increment the frame's reference count (Linux [get_page]). *)

val put_page : t -> Physmem.Frame.t -> unit
(** Decrement; raises [Invalid_argument] below zero. *)

val mapcount : t -> Physmem.Frame.t -> int
val inc_mapcount : t -> Physmem.Frame.t -> unit

(** {1 The frame hand-off}

    The only way a baseline user page gets and returns its frame. Apart
    from the {!mlock} pin, no other VM code touches a user frame's counts
    or frees it. *)

val map :
  t -> Address_space.t -> va:int -> pfn:Physmem.Frame.t -> prot:Hw.Prot.t ->
  size:Hw.Page_size.t -> dirty:bool -> anon:bool -> unit
(** Install the leaf (with [dirty] as its dirty bit), then take the
    mapping's reference and mapcount. An [anon] 4 KiB mapping at
    page-aligned [va] also goes on the inactive reclaim list (setting
    [Lru], charged); a huge leaf stays off the lists. *)

val unmap :
  t -> zero:Physmem.Zero_engine.t -> Address_space.t -> va:int -> Hw.Page_table.leaf ->
  owned:bool -> unit
(** Drop the mapping's reference and mapcount, then remove the leaf at
    [va] from the address space's table. When that was the frame's last mapping and the caller [owned]
    it (an anonymous page that is not being split), first drop an mlock
    pin with its Pinned/Mlocked/Unevictable flags and hand every frame
    of the leaf to [zero] (512 for a 2 MiB leaf) with its flags cleared,
    uncharged; and {!unlink} the mapping. TLB invalidation stays with the
    caller. *)

(** {1 The reclaim lists}

    An intrusive LRU, Linux's [page->lru]: an int-named node per
    anonymous 4 KiB mapping {!map} installed (fork gives a shared frame
    one per address space), on the inactive or active list and its
    frame's chain. {!unmap} frees the mapping's node, uncharged. *)

val unlink : t -> Address_space.t -> va:int -> pfn:Physmem.Frame.t -> unit
(** Free the address space's node for [pfn] at [va], if it has one. No
    charge. *)

val lru_length : t -> active:bool -> int
val lru_first : t -> active:bool -> int (* the list's oldest node; -1 if empty *)
val node_aspace : t -> int -> Address_space.t
val node_va : t -> int -> int
val requeue : t -> int -> active:bool -> unit (* to the list's tail *)

val iter_lru : t -> (Physmem.Frame.t -> Address_space.t -> va:int -> unit) -> unit
(** Every node, by frame. Host-side introspection: no charge. *)

val mlock : t -> Physmem.Frame.t -> unit
(** Pin the frame: one reference plus the Pinned, Mlocked and
    Unevictable flags, taken once however often the frame is locked. Its
    owner's last {!unmap} drops the pin. *)

val init_range : t -> first:Physmem.Frame.t -> count:int -> unit
(** Model boot-time initialisation of a frame range: charges
    [struct_page_init] per frame — one of the paper's linear costs. *)

val reset_after_crash : t -> unit
(** Drop every chunk and the reclaim lists and zero "resident_pages":
    struct pages are DRAM state and do not survive a power failure. *)

val iter_counts : t -> (Physmem.Frame.t -> refcount:int -> mapcount:int -> unit) -> unit
(** Visit every frame of every chunk made since boot or the last crash,
    in frame order; frames never updated report zero counts. Host-side
    introspection for the invariant checker: no charge. *)

val bytes_per_page : int
(** 64, as in Linux. *)

val metadata_bytes : t -> int
(** [frames * bytes_per_page]: what the kernel pays for the whole
    machine, touched or not. *)
