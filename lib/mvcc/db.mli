(** Shared database context: clock, devices, buffer pool, WAL, transaction
    and lock managers, and the flush-policy daemon.

    Both engines operate against this context, so a comparison run differs
    only in engine logic and storage layout — never in substrate plumbing.
    The WAL lives on its own device (as in the paper's measurement setup,
    where the analyzed blocktrace is the data volume's). *)

type t = {
  clock : Sias_util.Simclock.t;
  device : Flashsim.Device.t;  (** data device *)
  pool : Sias_storage.Bufpool.t;
  wal : Sias_wal.Wal.t;
  commitpipe : Sias_wal.Commitpipe.t;
      (** how commits reach durability: per-commit fsync (default),
          group commit, or async commit with a WAL-writer trickle *)
  txnmgr : Sias_txn.Txn.mgr;
  lockmgr : Sias_txn.Lockmgr.t;
  bgwriter : Sias_storage.Bgwriter.t;
  cpu_op_s : float;  (** simulated CPU seconds charged per logical row op *)
  append_seal_interval : float option;
      (** the paper's t1 threshold: append tails are persisted (sealed)
          this often; [None] = t2, checkpoint-only *)
  vidmap_paged : bool;
      (** store VID_map buckets in buffer-pool pages (paper Section 4.1.3:
          large maps spill to disk through the ordinary buffer machinery) *)
  faults : Flashsim.Faultdev.t option;  (** shared fault plan, if any *)
  fpw_done : (int * int, unit) Hashtbl.t;
      (** (rel, block) pairs whose full-page image was already logged since
          the last checkpoint; cleared by the checkpointer so each page's
          first post-checkpoint modification logs a repair base image *)
  contention : Sias_txn.Contention.t;
      (** conflict policy, retry orchestrator and admission gate; engines
          route writer-lock acquisition through it *)
  bus : Sias_obs.Bus.t;
      (** the context's observability event bus: every layer below
          (device, buffer pool, WAL, background writer, contention) and
          above (engines, workload drivers) publishes into it; consumers
          — the SI checker, the metrics recorder, the span tracer —
          subscribe through {!Sias_obs.Bus.subscribe}. With no
          subscribers every publishing site is a single branch. *)
  mutable next_rel : int;
  mutable tickers : (unit -> unit) list;
      (** auxiliary periodic work run by {!tick} after the built-in
          daemons (e.g. a replication sender's ship loop); empty by
          default, so unaugmented contexts pay nothing *)
  mutable wal_logging : bool;
      (** hot-standby switch: when [false], {!commit} and {!abort} skip
          the WAL record and the commit pipeline (the transaction is
          still marked in the CLOG and its locks released). A standby's
          read-only transactions must not interleave local records into
          a log that is a verbatim copy of the primary's; promotion turns
          logging back on. [true] by default. *)
  wrote : (int, unit) Hashtbl.t;
      (** xids that logged at least one record — maintained only when the
          WAL has finite capacity, to tell writers from read-only
          transactions at commit once degraded *)
  mutable degraded : string option;
      (** loud read-only degraded mode: [Some reason] once emergency
          reclamation failed to make room for a record; writers raise
          {!Read_only}, readers proceed. Cleared by {!crash} (restart). *)
  mutable last_reclaim_lsn : int;
      (** WAL head when emergency reclamation last ran; a retry with no
          new records in between is skipped (checkpoint-record storms) *)
  isolation : Isolation.level;
      (** the context's isolation level; every registered engine composes
          with every level (the level lives here, not in the engine) *)
  ssi : Ssimgr.t option;
      (** serializability tracking state, present under [`Ssi]/[`Wsi]
          only; [None] under the default [`Si], so every hook is a
          single branch and SI runs stay byte-identical *)
  index_kind : [ `Array | `Paged ];
      (** which secondary/pk index implementation engines build through
          {!Index.create}: [`Array] — the node-image {!Sias_index.Btree}
          rebuilt from the heap at recovery (the historical, golden
          behavior) — or [`Paged], the WAL-logged
          {!Sias_index.Paged_btree} whose pages are crash-recovered in
          place *)
}

exception Read_only of { reason : string }
(** The database is in read-only degraded mode (out of WAL space even
    after emergency reclamation); the writing transaction was aborted. *)

exception Serialization_failure of { xid : int; reason : string }
(** The isolation level's commit rule (SSI dangerous-structure check or
    WSI read-write certification) rejected the transaction. It has
    already been aborted when this is raised — do {e not} abort it
    again (the {!Sias_txn.Contention.Wounded} contract). Engines
    translate this into [Error Serialization_failure]. *)

(** Events contributed by the MVCC layer. [Txn_snapshot] accompanies
    every [Sias_obs.Bus.Txn_begin]; [Row_read]/[Row_write] report
    primary-key row operations with the row payload ([None] = delete
    tombstone), published by all engines on success paths — the SI
    invariant checker consumes exactly these. *)
module Event : sig
  type Sias_obs.Bus.event +=
    | Txn_snapshot of { xid : int; snapshot : Sias_txn.Snapshot.t }
    | Row_read of { xid : int; rel : int; pk : int; row : Value.t array option }
    | Row_write of { xid : int; rel : int; pk : int; row : Value.t array option }
end

val create :
  ?bus:Sias_obs.Bus.t ->
  ?device:Flashsim.Device.t ->
  ?wal_device:Flashsim.Device.t ->
  ?buffer_pages:int ->
  ?flush_policy:Sias_storage.Bgwriter.policy ->
  ?checkpoint_interval:float ->
  ?cpu_op_s:float ->
  ?append_seal_interval:float ->
  ?os_cache_interval:float ->
  ?os_cache_pages:int ->
  ?vidmap_paged:bool ->
  ?faults:Flashsim.Faultdev.t ->
  ?contention:Sias_txn.Contention.settings ->
  ?commit_mode:Sias_wal.Commitpipe.mode ->
  ?wal_capacity_bytes:int ->
  ?isolation:Isolation.level ->
  ?bufpool_shards:int ->
  ?index:[ `Array | `Paged ] ->
  unit ->
  t
(** Defaults: a fresh X25-E-class SSD data device, an in-memory WAL sink,
    2048 buffer pages, checkpoint-only flushing every 30 simulated
    seconds, and 5 µs CPU per row operation. [faults] injects the same
    fault plan into the buffer pool (reads/writes of data pages) and the
    WAL (torn async flushes). [contention] selects the conflict policy
    and admission limits (default: no-wait, unlimited). [commit_mode]
    selects the commit pipeline (default: synchronous per-commit fsync,
    the historical behavior). [isolation] selects the isolation level
    (default [`Si], the historical snapshot-isolation behavior —
    byte-identical output; [`Ssi]/[`Wsi] add serializability tracking,
    see {!Ssimgr}). [bufpool_shards] (default 1) partitions the buffer
    pool's frame table for multi-domain access; the default single
    shard takes no locks and is byte-identical to the unsharded pool.
    [index] selects the index implementation engines build (default
    [`Array], byte-identical to the historical behavior; [`Paged]
    switches to the WAL-logged paged B+Tree — see the [index_kind]
    field). *)

val alloc_rel : t -> int
(** Relation ids place each relation in its own device region. *)

val now : t -> float

val begin_txn : ?read_only:bool -> ?deferrable:bool -> t -> Sias_txn.Txn.t
(** Under [`Ssi]/[`Wsi], [read_only] (and [deferrable], which implies
    the intent) lets a transaction that begins with no concurrent
    transactions run on a {e safe snapshot}: exempt from all
    serializability tracking, guaranteed never to abort. Both default
    to [false] and are ignored under [`Si]. *)

val commit : t -> Sias_txn.Txn.t -> unit
(** Append the commit record and route it through the commit pipeline —
    per-commit fsync by default, deferred group fsync or async ack under
    the other modes (the driver inspects
    {!Sias_wal.Commitpipe.last_ack} to learn which) — then mark
    committed and release locks. If the transaction was doomed by a
    wound-wait or deadlock-victim decision, it is aborted instead and
    {!Sias_txn.Contention.Wounded} is raised. Under [`Ssi]/[`Wsi] the
    level's commit rule runs first; on failure the transaction is
    aborted and {!Serialization_failure} is raised — callers must not
    abort it again. *)

val abort : t -> Sias_txn.Txn.t -> unit

val bus : t -> Sias_obs.Bus.t
(** The context's event bus, for subscribing consumers. *)

val observed : t -> bool
(** [true] when the bus has subscribers. Publishing sites check this
    before building an event, so observability costs one branch when
    off. *)

val emit : t -> Sias_obs.Bus.event -> unit
(** Publish an event on the context's bus. Call only behind an
    {!observed} check. *)

val charge_cpu : t -> int -> unit
(** [charge_cpu db n] advances the clock by [n] row-operation costs. *)

val tick : t -> unit
(** Run flush-policy work that has become due, then any registered
    auxiliary tickers. *)

val add_ticker : t -> (unit -> unit) -> unit
(** Register auxiliary periodic work to run on every {!tick}, after the
    commit pipeline and background writer (replication senders use this
    to ship newly flushed WAL). Tickers run in registration order. *)

val set_wal_logging : t -> bool -> unit
(** Flip the hot-standby switch (see the [wal_logging] field). *)

val crash : t -> unit
(** Single crash entry point: drop every layer's volatile state at once
    (buffer pool, unflushed WAL tail, commit pipeline, locks, active
    transactions, admission gate, FPW memory, degraded flag) exactly as a
    power cut would. Durable state — device sectors and the flushed WAL
    prefix — survives; call the engine's [recover] afterwards. *)

val reclaim_wal : t -> bool
(** Emergency WAL reclamation: checkpoint the pool, append a checkpoint
    record carrying the CLOG snapshot (exempt from the capacity check),
    flush synchronously, then truncate below it — clamped by retention
    holds. Returns whether any bytes were freed. No-op (returns [false])
    when no record was appended since the last reclamation. *)

val make_wal_room : t -> payload_bytes:int -> unit
(** Run the emergency reclamation now if a record with a payload of
    [payload_bytes] would not fit the log. For callers that changed a page
    before logging the change: a reclamation inside {!log_op} would
    checkpoint that page under its old LSN, and redo would then apply the
    record a second time. *)

val degraded : t -> string option
(** [Some reason] while in read-only degraded mode. *)

val append_wal :
  t -> xid:int -> rel:int -> kind:Sias_wal.Wal.kind -> payload:bytes -> int
(** WAL append with out-of-space handling: on [Wal.Out_of_space], run
    {!reclaim_wal} and retry once; if still full, enter degraded mode and
    raise {!Read_only}. Raises {!Read_only} immediately when already
    degraded. *)

val log_op :
  t ->
  xid:int ->
  rel:int ->
  kind:Sias_wal.Wal.kind ->
  payload:bytes ->
  int

(** {1 Isolation hooks}

    Engines call these from their read / write / scan paths; under the
    default [`Si] level each is a single branch. Engines cache
    {!ssi_tracking} at creation so hot loops pay one local-bool branch
    and SI output stays byte-identical. See {!Ssimgr} for semantics. *)

val isolation : t -> Isolation.level
val ssi_tracking : t -> bool
val ssimgr : t -> Ssimgr.t option
val note_read : t -> xid:int -> rel:int -> pk:int -> probe_writes:bool -> unit
val note_write : t -> xid:int -> rel:int -> pk:int -> unit
val note_scan : t -> xid:int -> rel:int -> probe_writes:bool -> unit
val note_lineage_writer : t -> reader:int -> writer:int -> unit
