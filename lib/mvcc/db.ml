module Simclock = Sias_util.Simclock
module Device = Flashsim.Device
module Bufpool = Sias_storage.Bufpool
module Bgwriter = Sias_storage.Bgwriter
module Wal = Sias_wal.Wal
module Commitpipe = Sias_wal.Commitpipe
module Txn = Sias_txn.Txn
module Lockmgr = Sias_txn.Lockmgr
module Contention = Sias_txn.Contention
module Bus = Sias_obs.Bus
module Crashpoint = Sias_chaos.Crashpoint

type t = {
  clock : Simclock.t;
  device : Device.t;
  pool : Bufpool.t;
  wal : Wal.t;
  commitpipe : Commitpipe.t;
  txnmgr : Txn.mgr;
  lockmgr : Lockmgr.t;
  bgwriter : Bgwriter.t;
  cpu_op_s : float;
  append_seal_interval : float option;
  vidmap_paged : bool;
  faults : Flashsim.Faultdev.t option;
  fpw_done : (int * int, unit) Hashtbl.t;
  contention : Contention.t;
  bus : Bus.t;
  mutable next_rel : int;
  mutable tickers : (unit -> unit) list;
  mutable wal_logging : bool;
  wrote : (int, unit) Hashtbl.t;
  mutable degraded : string option;
  mutable last_reclaim_lsn : int;
  isolation : Isolation.level;
  ssi : Ssimgr.t option;
  index_kind : [ `Array | `Paged ];
}

exception Read_only of { reason : string }
exception Serialization_failure of { xid : int; reason : string }

let () =
  Printexc.register_printer (function
    | Read_only { reason } ->
        Some
          (Printf.sprintf
             "Db.Read_only: the database is in read-only degraded mode (%s); \
              only read-only transactions are accepted until restart"
             reason)
    | Serialization_failure { xid; reason } ->
        Some
          (Printf.sprintf
             "Db.Serialization_failure: transaction %d was aborted to \
              preserve serializability (%s); retry it"
             xid reason)
    | _ -> None)

module Event = struct
  type Bus.event +=
    | Txn_snapshot of { xid : int; snapshot : Sias_txn.Snapshot.t }
    | Row_read of { xid : int; rel : int; pk : int; row : Value.t array option }
    | Row_write of { xid : int; rel : int; pk : int; row : Value.t array option }
end

let create ?bus ?device ?wal_device ?(buffer_pages = 2048)
    ?(flush_policy = Bgwriter.T2_checkpoint_only) ?(checkpoint_interval = 30.0)
    ?(cpu_op_s = 5e-6) ?append_seal_interval ?os_cache_interval ?os_cache_pages ?(vidmap_paged = false) ?faults
    ?(contention = Contention.default_settings) ?(commit_mode = Commitpipe.Sync)
    ?wal_capacity_bytes ?(isolation = `Si) ?(bufpool_shards = 1)
    ?(index = `Array) () =
  let clock = Simclock.create () in
  let bus = match bus with Some b -> b | None -> Bus.create () in
  let device =
    match device with Some d -> d | None -> Device.ssd_x25e ~name:"data-ssd" ()
  in
  Device.attach_bus device bus;
  Option.iter (fun d -> Device.attach_bus d bus) wal_device;
  let pool = Bufpool.create ~device ~clock ~capacity_pages:buffer_pages ?os_cache_interval ?os_cache_pages ~bus ?faults ~shards:bufpool_shards () in
  let wal =
    Wal.create ?device:wal_device ?faults ~bus ?capacity_bytes:wal_capacity_bytes
      ~clock ()
  in
  let commitpipe = Commitpipe.create ~wal ~clock ~bus commit_mode in
  let fpw_done = Hashtbl.create 512 in
  let bgwriter =
    Bgwriter.create pool ~clock ~policy:flush_policy ~checkpoint_interval
      ~before_checkpoint:(fun () -> Commitpipe.before_checkpoint commitpipe)
      ~on_checkpoint:(fun () -> Hashtbl.reset fpw_done)
      ~bus ()
  in
  let lockmgr = Lockmgr.create () in
  let txnmgr = Txn.create_mgr () in
  (* Hint-bit durability gate: a committed hint may persist only once the
     commit record is flushed (matters under group/async commit). *)
  Txn.set_flushed_probe txnmgr (fun () -> Wal.flushed_lsn wal);
  let ssi =
    match isolation with
    | `Si -> None
    | `Ssi | `Wsi ->
        let mode = if isolation = `Ssi then Ssimgr.Ssi else Ssimgr.Wsi in
        Some
          (Ssimgr.create ~mode ~txnmgr ~bus
             ~charge:(fun n -> Simclock.advance clock (float_of_int n *. cpu_op_s)))
  in
  {
    clock;
    device;
    pool;
    wal;
    commitpipe;
    txnmgr;
    lockmgr;
    bgwriter;
    cpu_op_s;
    append_seal_interval;
    vidmap_paged;
    faults;
    fpw_done;
    contention = Contention.create ~settings:contention ~bus ~clock ~lockmgr ();
    bus;
    next_rel = 0;
    tickers = [];
    wal_logging = true;
    wrote = Hashtbl.create 64;
    degraded = None;
    last_reclaim_lsn = -1;
    isolation;
    ssi;
    index_kind = index;
  }

let alloc_rel t =
  let r = t.next_rel in
  t.next_rel <- r + 1;
  r

let now t = Simclock.now t.clock

let bus t = t.bus
let observed t = Bus.active t.bus
let emit t e = Bus.publish t.bus e

let begin_txn ?(read_only = false) ?(deferrable = false) t =
  let txn = Txn.begin_txn ~now:(now t) t.txnmgr in
  (match t.ssi with
  | Some s -> Ssimgr.on_begin s txn ~read_only ~deferrable
  | None -> ());
  if observed t then begin
    emit t (Bus.Txn_begin { xid = txn.Txn.xid });
    emit t (Event.Txn_snapshot { xid = txn.Txn.xid; snapshot = txn.Txn.snapshot })
  end;
  txn

(* ---------------- isolation hooks ----------------

   All four engines call these from their read/write/scan paths; under
   the default [`Si] level each is a single branch on [t.ssi]. The
   engines additionally cache [ssi_tracking] at creation so their hot
   loops pay one local-bool branch, keeping SI runs byte-identical. *)

let isolation t = t.isolation
let ssi_tracking t = t.ssi <> None

let note_read t ~xid ~rel ~pk ~probe_writes =
  match t.ssi with
  | Some s -> Ssimgr.note_read s ~xid ~rel ~pk ~probe_writes
  | None -> ()

let note_write t ~xid ~rel ~pk =
  match t.ssi with Some s -> Ssimgr.note_write s ~xid ~rel ~pk | None -> ()

let note_scan t ~xid ~rel ~probe_writes =
  match t.ssi with
  | Some s -> Ssimgr.note_scan s ~xid ~rel ~probe_writes
  | None -> ()

let note_lineage_writer t ~reader ~writer =
  match t.ssi with
  | Some s -> Ssimgr.note_lineage_writer s ~reader ~writer
  | None -> ()

let ssimgr t = t.ssi

(* ---------------- out-of-space degradation ---------------- *)

let enter_degraded t ~subsystem ~reason =
  t.degraded <- Some reason;
  (* writers must not even be admitted while read-only *)
  Contention.set_backpressure t.contention true;
  if observed t then emit t (Bus.Degraded { subsystem; reason })

(* CLOG snapshot carried by checkpoint records: 8-byte LE next_xid, then
   the raw dense-CLOG image. Recovery restores it so commit/abort verdicts
   of transactions whose records were reclaimed survive log truncation. *)
let checkpoint_payload t =
  let next_xid, image = Txn.clog_image t.txnmgr in
  let b = Bytes.create (8 + String.length image) in
  Bytes.set_int64_le b 0 (Int64.of_int next_xid);
  Bytes.blit_string image 0 b 8 (String.length image);
  b

(* Emergency WAL reclamation: checkpoint the pool (every retained heap
   record is now redundant with the on-device pages), append a checkpoint
   record carrying the CLOG snapshot (exempt from the capacity check —
   the reserved emergency region), force it durable, then drop everything
   below it. Any crash window leaves either the full old log or the
   checkpoint record onward — never a gap. Retention holds (a standby
   still catching up) clamp the truncation as usual, so reclamation can
   legitimately free nothing. The [last_reclaim_lsn] guard stops a full
   log from provoking a checkpoint-record storm: if no record was
   appended since the last attempt, trying again cannot help. *)
let reclaim_wal t =
  if Wal.current_lsn t.wal = t.last_reclaim_lsn then false
  else begin
    let before = Wal.retained_bytes t.wal in
    Bgwriter.checkpoint_now t.bgwriter;
    let ckpt_lsn =
      Wal.append t.wal ~xid:0 ~rel:(-1) ~kind:Wal.Checkpoint
        ~payload:(checkpoint_payload t)
    in
    Wal.flush t.wal ~sync:true;
    Wal.truncate_before t.wal ~lsn:ckpt_lsn;
    t.last_reclaim_lsn <- Wal.current_lsn t.wal;
    let freed = Stdlib.max 0 (before - Wal.retained_bytes t.wal) in
    if observed t then
      emit t (Bus.Wal_reclaim { upto_lsn = ckpt_lsn; freed_bytes = freed });
    freed > 0
  end

(* Every WAL append from this layer funnels through here. Out of space:
   reclaim once and retry; if the log is still full (holds, or one giant
   record) the database degrades to loud read-only rather than crashing
   or silently dropping updates. *)
let append_wal t ~xid ~rel ~kind ~payload =
  (match t.degraded with
  | Some reason -> raise (Read_only { reason })
  | None -> ());
  try Wal.append t.wal ~xid ~rel ~kind ~payload
  with Wal.Out_of_space _ -> (
    ignore (reclaim_wal t);
    try Wal.append t.wal ~xid ~rel ~kind ~payload
    with Wal.Out_of_space { needed; capacity; retained } ->
      let reason =
        Printf.sprintf
          "WAL full: %d bytes needed against a capacity of %d (%d bytes still \
           retained after emergency reclamation)"
          needed capacity retained
      in
      enter_degraded t ~subsystem:"wal" ~reason;
      raise (Read_only { reason }))

let abort t txn =
  Crashpoint.reach "db.abort.pre";
  (if t.wal_logging && t.degraded = None then
     (* Failure to log an abort is harmless — the absence of a commit
        record already means aborted at recovery — so a full log must not
        turn abort (the error path!) into another error. *)
     try
       ignore
         (Wal.append t.wal ~xid:txn.Txn.xid ~rel:(-1) ~kind:Wal.Abort
            ~payload:Bytes.empty)
     with Wal.Out_of_space _ -> ());
  Hashtbl.remove t.wrote txn.Txn.xid;
  Txn.abort t.txnmgr txn;
  Lockmgr.release_all t.lockmgr ~xid:txn.Txn.xid;
  Contention.finished t.contention ~xid:txn.Txn.xid;
  (match t.ssi with Some s -> Ssimgr.on_abort s txn | None -> ());
  if observed t then emit t (Bus.Txn_abort { xid = txn.Txn.xid })

let commit t txn =
  if Contention.is_doomed t.contention ~xid:txn.Txn.xid then begin
    (* wound-wait / deadlock victim reaching commit: it loses *)
    Contention.note_victim_abort t.contention;
    abort t txn;
    raise (Contention.Wounded txn.Txn.xid)
  end;
  (match t.degraded with
  | Some reason when Hashtbl.mem t.wrote txn.Txn.xid ->
      (* a writer slipped past the gate before degradation hit *)
      abort t txn;
      raise (Read_only { reason })
  | _ -> ());
  (* Isolation-level commit rule (SSI dangerous-structure check / WSI
     read-write certification) runs before anything durable happens: a
     failing transaction is aborted here — callers must NOT abort it
     again (same contract as {!Sias_txn.Contention.Wounded}). *)
  (match t.ssi with
  | Some s -> (
      match Ssimgr.pre_commit s txn with
      | Ok () -> ()
      | Error reason ->
          abort t txn;
          raise (Serialization_failure { xid = txn.Txn.xid; reason }))
  | None -> ());
  (if t.wal_logging && t.degraded = None then begin
     Crashpoint.reach "db.commit.wal.pre";
     let lsn =
       try
         append_wal t ~xid:txn.Txn.xid ~rel:(-1) ~kind:Wal.Commit
           ~payload:Bytes.empty
       with Read_only _ as e ->
         abort t txn;
         raise e
     in
     let ack = Commitpipe.commit t.commitpipe ~xid:txn.Txn.xid ~lsn in
     (* Not yet durable (group commit queues; async acks before flushing):
        note the lsn so hint bits wait for the WAL to catch up. *)
     match (Commitpipe.mode t.commitpipe, ack) with
     | Commitpipe.Async _, _ | _, Commitpipe.Queued _ ->
         Txn.note_commit_lsn t.txnmgr ~xid:txn.Txn.xid ~lsn
     | _, Commitpipe.Durable _ -> ()
   end);
  Crashpoint.reach "db.clog.mark.pre";
  Txn.commit t.txnmgr txn;
  Crashpoint.reach "db.clog.mark.post";
  Hashtbl.remove t.wrote txn.Txn.xid;
  Lockmgr.release_all t.lockmgr ~xid:txn.Txn.xid;
  Contention.finished t.contention ~xid:txn.Txn.xid;
  (match t.ssi with Some s -> Ssimgr.on_commit s txn | None -> ());
  if observed t then emit t (Bus.Txn_commit { xid = txn.Txn.xid })

let charge_cpu t n = Simclock.advance t.clock (float_of_int n *. t.cpu_op_s)

let add_ticker t f = t.tickers <- t.tickers @ [ f ]
let set_wal_logging t b = t.wal_logging <- b

(* Watermark backpressure: above 85% of WAL capacity, reclaim and — if
   still high (holds pinning the tail) — shed new admissions until usage
   falls back under 60%. Unbounded logs (the default) never enter. *)
let high_watermark = 0.85
let low_watermark = 0.60

let wal_pressure t =
  match Wal.capacity_bytes t.wal with
  | Some cap when t.degraded = None ->
      let usage_of b = float_of_int b /. float_of_int cap in
      let usage = usage_of (Wal.retained_bytes t.wal) in
      if usage >= high_watermark then begin
        ignore (reclaim_wal t);
        let usage' = usage_of (Wal.retained_bytes t.wal) in
        if usage' >= high_watermark then begin
          if not (Contention.backpressure t.contention) then begin
            Contention.set_backpressure t.contention true;
            if observed t then
              emit t (Bus.Backpressure { on = true; usage = usage' })
          end
        end
        else if Contention.backpressure t.contention && usage' <= low_watermark
        then begin
          Contention.set_backpressure t.contention false;
          if observed t then
            emit t (Bus.Backpressure { on = false; usage = usage' })
        end
      end
      else if usage <= low_watermark && Contention.backpressure t.contention
      then begin
        Contention.set_backpressure t.contention false;
        if observed t then emit t (Bus.Backpressure { on = false; usage })
      end
  | Some _ | None -> ()

let tick t =
  Commitpipe.tick t.commitpipe;
  Bgwriter.tick t.bgwriter;
  wal_pressure t;
  match t.tickers with [] -> () | fs -> List.iter (fun f -> f ()) fs

let make_wal_room t ~payload_bytes =
  if t.degraded = None && not (Wal.fits t.wal ~payload_bytes) then ignore (reclaim_wal t)

let log_op t ~xid ~rel ~kind ~payload =
  if Wal.capacity_bytes t.wal <> None then Hashtbl.replace t.wrote xid ();
  append_wal t ~xid ~rel ~kind ~payload

(* ---------------- crash ---------------- *)

(* Single crash entry point: every layer's volatile state dies together,
   exactly as a power cut would take it. Durable state (device sectors,
   flushed WAL prefix) survives untouched; [recover] on the engine then
   rebuilds from that alone. *)
let crash t =
  Bufpool.crash t.pool;
  Wal.crash t.wal;
  Commitpipe.crash t.commitpipe;
  Lockmgr.reset t.lockmgr;
  Txn.reset_active t.txnmgr;
  Contention.reset_admission t.contention;
  Hashtbl.reset t.fpw_done;
  Hashtbl.reset t.wrote;
  (* SIREAD locks, rw edges and doomed flags are volatile: recovery must
     start serializability tracking from scratch (mirrors the CLOG
     reset above — nothing unflushed may influence post-crash commits). *)
  (match t.ssi with Some s -> Ssimgr.reset s | None -> ());
  t.degraded <- None;
  t.last_reclaim_lsn <- -1

let degraded t = t.degraded
