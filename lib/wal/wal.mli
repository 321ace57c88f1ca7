(** Write-ahead log.

    Both engines log logical records before touching heap pages; commit
    forces the log. The log device is separate from the data device (as in
    the paper's measurement setup, where the relation blocktrace shows only
    heap I/O), and WAL writes are strictly sequential appends.

    Records are retained in memory with their LSNs so that recovery tests
    can replay the tail of the log after a simulated crash; engines supply
    their own payload encoding.

    Every record carries a CRC32 over its header and payload, computed at
    append and verified by the recovery scan ({!verified_from}): a torn
    tail — invalid records only at the end of the log — marks the exact
    point where replay must stop, while an invalid record {e followed} by
    a valid one means corruption inside the log body and raises
    {!Corrupt_wal} rather than replaying past damage. *)

type kind =
  | Insert
  | Update
  | Delete
  | Trim  (** whole-page discard by GC *)
  | Commit
  | Abort
  | Checkpoint
  | Full_page
      (** full post-image of a heap page, logged instead of the item
          record on the first modification after a checkpoint so a torn
          data-page write can be repaired (PostgreSQL full-page writes) *)
  | Ix_batch
      (** one logical index structural change (insert, split, delete,
          merge) encoded as a batch of per-page slot deltas; the record
          CRC makes multi-page changes atomic at replay — either the
          whole split redoes or none of it ({!Mvcc.Walcodec} owns the
          payload codec) *)

val kind_to_string : kind -> string

type record = {
  lsn : int;
  xid : int;
  rel : int;
  kind : kind;
  payload : bytes;
  crc : int;  (** CRC32 over header fields and payload *)
}

exception Corrupt_wal of int
(** LSN of an invalid record found {e before} valid ones — mid-log
    corruption that replay must never skip silently. *)

exception Out_of_space of { needed : int; capacity : int; retained : int }
(** Appending [needed] more bytes would push the retained log past its
    configured [capacity]. Raised before the record is buffered: the log
    is unchanged, so the caller can checkpoint + {!truncate_before} and
    retry, or degrade to read-only. *)

exception Hold_too_late of { name : string; truncated_below : int }
(** {!register_hold} after the log was already truncated: a follower
    attached that late could never replay from scratch. *)

exception Lsn_gap of { expected : int; got : int }
(** {!install} received a record out of order; shipped records must
    arrive densely at exactly [next_lsn]. *)

type t

val create :
  ?device:Flashsim.Device.t ->
  ?faults:Flashsim.Faultdev.t ->
  ?bus:Sias_obs.Bus.t ->
  ?capacity_bytes:int ->
  clock:Sias_util.Simclock.t ->
  unit ->
  t
(** Without a device the log is purely in-memory (no latency charged).
    With [faults], async flushes may be torn if a crash follows before
    the next sync flush; sync flushes (commit) are always durable.
    [capacity_bytes] bounds the retained log: appends that would exceed
    it raise {!Out_of_space} (default: unbounded). *)

val append : t -> xid:int -> rel:int -> kind:kind -> payload:bytes -> int
(** Buffer a record (checksummed at append); returns its LSN. No I/O
    happens until {!flush}. *)

val flush : t -> sync:bool -> unit
(** Write all buffered bytes as one sequential append. [sync] stalls the
    caller's clock until completion (commit) and makes everything written
    so far durable; async flushes model WAL writer activity and may tear
    at a crash. *)

val flush_upto : t -> sync:bool -> at:float -> lsn:int -> float
(** Flush the pending batch up to and including [lsn], submitting to the
    device at simulated time [at] (which may lie ahead of the global
    clock), and return the device completion time ([at] when the log has
    no device). Unlike {!flush} the global clock is {e not} advanced:
    a commit group charges the shared completion to each member while
    the rest of the system keeps running. A [sync] flush clears any
    pending tear, exactly as {!flush}[ ~sync:true] does. *)

val pending_bytes : t -> int
(** Bytes buffered but not yet handed to the device — the WAL-writer
    trickle's byte threshold reads this. *)

val pending_records : t -> record list
(** The unflushed batch in log order (test hook; the batch is tracked
    explicitly rather than re-derived from the retained log). *)

val record_bytes : record -> int
(** On-disk size of a record: fixed header plus payload. *)

val tear_point : slice:record list -> persisted:int -> int option
(** Of a flushed [slice] (oldest first), the LSN of the first record not
    wholly contained in the first [persisted] bytes; [None] when all fit.
    Operates on the flushed slice alone — O(|slice|), not a scan of the
    retained log. Exposed as a test hook so the equivalence against a
    whole-log reference scan stays pinned. *)

val current_lsn : t -> int
val flushed_lsn : t -> int

val next_lsn : t -> int
(** The LSN the next {!append} will be assigned — lets a full-page write
    stamp the page with its own record's LSN before capturing the image. *)

val verify : record -> bool
(** Whether the record's stored CRC matches its content. *)

val records_from : t -> lsn:int -> record list
(** All records with LSN >= [lsn], in log order, without verification.
    Prefer {!verified_from} for recovery. *)

val verified_from : t -> lsn:int -> record list * [ `Clean | `Torn of int ]
(** Recovery scan: records with LSN >= [lsn] whose checksums verify, in
    log order, stopping at the first invalid record. [`Torn lsn] reports
    where a torn tail begins (replay is complete up to but excluding it);
    raises {!Corrupt_wal} when a valid record follows an invalid one. *)

val truncate_before : t -> lsn:int -> unit
(** Discard retained records below [lsn] (checkpoint recycling). The
    request is clamped to the lowest registered retention {!hold}: a
    checkpoint can never recycle log a follower still needs. *)

(** {2 Retention holds}

    A hold pins the log tail from a given LSN onward: {!truncate_before}
    silently clamps to the minimum held LSN. Replication senders register
    one per standby and advance it as the standby acknowledges, so
    checkpoint recycling can never outrun a lagging follower. *)

type hold

val register_hold : t -> name:string -> hold
(** Pin everything the log currently retains (from {!oldest_retained}).
    Raises {!Hold_too_late} if the log was already truncated past its
    first LSN — a follower attached that late would never be able to
    replay from scratch; attach holds before the first checkpoint
    truncation. *)

val advance_hold : t -> hold -> lsn:int -> unit
(** Records below [lsn] are no longer needed by this holder. Holds only
    move forward; a lower [lsn] is ignored. *)

val release_hold : t -> hold -> unit
(** Drop the pin entirely (standby removed). Idempotent. *)

val hold_lsn : hold -> int
val holds : t -> (string * int) list
(** Registered holds as [(name, held_lsn)], registration order. *)

val min_hold : t -> int option
(** Lowest held LSN across registered holds, if any. *)

val install : t -> record -> unit
(** Standby side of log shipping: append a record received from a
    primary {e verbatim} — LSN, xid, payload and CRC are preserved, so
    the standby's log is byte-equal to the shipped prefix and the same
    recovery scan ({!verified_from}) applies. The record must verify and
    must be exactly the next LSN ([next_lsn]); raises [Corrupt_wal] on a
    failed checksum and {!Lsn_gap} on an LSN gap. The installed record
    joins the pending batch; flush it like any locally appended one. *)

val oldest_retained : t -> int
(** Lowest LSN the log still retains (1 if never truncated): replay from
    scratch is possible iff this is <= the first LSN ever issued. *)

val crash : t -> unit
(** Simulate losing the machine: un-flushed records vanish; if any
    un-fsynced async flush would tear, everything from the {e earliest}
    tear on is lost and the boundary record's checksum breaks (a real
    torn tail for {!verified_from} to find) — a hole in the log
    invalidates later flushes even when their own bytes landed whole.
    [next_lsn] is preserved — LSNs are never reused. *)

val corrupt : t -> lsn:int -> unit
(** Test hook: break the stored checksum of the record at [lsn]. *)

val bytes_written : t -> int
val flush_count : t -> int

val capacity_bytes : t -> int option
(** The configured bound, if any. *)

val fits : t -> payload_bytes:int -> bool
(** Whether a non-checkpoint record with a payload of [payload_bytes]
    would be accepted now without raising {!Out_of_space}. *)

val retained_bytes : t -> int
(** On-disk bytes of all currently retained records — what the capacity
    bound is charged against. Falls on {!truncate_before}. *)
