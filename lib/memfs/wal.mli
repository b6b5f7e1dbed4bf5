(** A crash-consistent write-ahead log on raw persistent memory.

    This is the mechanism behind every persistent-memory file system's
    metadata updates (PMFS journals exactly like this): records are made
    durable with the clwb/sfence discipline, a commit marker is written
    only after the payload is flushed, and recovery keeps the longest
    checksum-valid committed prefix — a torn tail (lines still in the
    cache hierarchy at power-fail, which {!Physmem.Phys_mem.crash}
    reverts) is detected and discarded.

    Record layout: 4-byte length, 4-byte payload checksum, 4-byte header
    CRC (over the first 8 bytes), payload, 1-byte commit marker. The
    header CRC means a torn or bit-flipped header is {e detected} — the
    length field is never trusted unless the header proves itself — so
    ["nvm_torn_line"] / ["nvm_bit_flip"] injections truncate replay at
    the first bad record instead of being silently applied. *)

type t

val checksum : string -> int
(** The record payload checksum: Adler-style, 32 bits, never zero (zero
    marks a blank header). *)

val checksum_sub : bytes -> pos:int -> len:int -> int
(** [checksum_sub b ~pos ~len] is {!checksum} of those [len] bytes of
    [b], read in place: callers checksum a line or a block inside their
    own buffer without copying it out. *)

val create : mem:Physmem.Phys_mem.t -> base:int -> capacity:int -> t
(** A fresh log over NVM bytes [base, base+capacity) of [mem]. [base]
    must lie in the NVM region. Existing bytes are ignored (use
    {!recover} to read a log back after a crash). *)

type error = Wal_full

val append : ?durable:bool -> t -> string -> (unit, error) result
(** Append one record. With [durable:true] (default) the payload is
    flushed and fenced before the commit marker, and the marker flushed
    after — the record is durable when [append] returns [Ok ()]. The
    header and payload are staged in a buffer the log keeps and reuses
    (it grows to the largest record), and go to the media in one
    persistent write.
    [durable:false] skips every flush (a deliberately buggy fast path for
    crash tests). Returns [Error Wal_full] when out of space — the log is
    unchanged and the caller decides ({!reset} or {!rewind}, or surface
    ENOSPC). The ["wal_partial_flush"] fault-injection site makes the
    payload flush cover only half the record's bytes. *)

val append_exn : ?durable:bool -> t -> string -> unit
(** {!append}, raising [Sim.Errno.Error (ENOSPC, _)] when full — for
    callers with no checkpoint story. *)

val max_record : t -> int
(** The longest payload a rewound log accepts: after {!rewind}, {!append}
    fails [Wal_full] exactly for a longer one. *)

val entries : t -> string list
(** Committed records, oldest first. *)

val entry_count : t -> int
val used_bytes : t -> int

val recover : mem:Physmem.Phys_mem.t -> base:int -> capacity:int -> t
(** Rebuild the log from NVM contents after a crash: scans records from
    [base], stopping at the first header-CRC failure (or insane length),
    missing marker, or payload-checksum mismatch, and positions the
    append cursor after the valid prefix. Each record costs three charged
    reads: its header, payload and marker. *)

val truncated : t -> bool
(** Whether a damaged or unfinished record, rather than a blank header,
    stopped the scan of the {!recover} that built this log (until {!rewind}). *)

val rewind : t -> unit
(** Move the append cursor back to the log's head and forget its records,
    writing nothing: the next {!append} overwrites the first record. *)

val reset : t -> unit
(** Truncate the log durably (zero and flush its first header), then {!rewind}. *)
