(* The classical update-in-place Snapshot Isolation machinery, shared by
   the SI baseline (FSM placement) and the SI-CV variant (transaction
   co-located placement, the paper's reference [18]). Everything except
   version placement is identical, which is exactly the comparison the
   authors draw. *)

module Tid = Sias_storage.Tid
module Heapfile = Sias_storage.Heapfile
module Txn = Sias_txn.Txn
module Contention = Sias_txn.Contention
module Wal = Sias_wal.Wal

module type PROFILE = sig
  val name : string
  val placement : Heapfile.placement
end

module Make (P : PROFILE) = struct
  let name = P.name

  type table = {
    tname : string;
    rel : int;
    mutable heap : Heapfile.t;
    pk_col : int;
    mutable pk_index : Index.t;
    mutable secondary : (int * Index.t) array;
  }

  type t = {
    db : Db.t;
    mutable tables : table list;
    mutable vacuumed_versions : int;
    mutable vacuumed_pages : int;
    track : bool;
        (* serializability tracking on (isolation <> `Si); cached so the
           hot paths pay one local branch and SI stays byte-identical *)
  }

  let create db =
    Walcodec.install_repair db;
    {
      db;
      tables = [];
      vacuumed_versions = 0;
      vacuumed_pages = 0;
      track = Db.ssi_tracking db;
    }
  let db t = t.db

  let create_table t ~name:tname ~pk_col ?(secondary = []) () =
    let rel = Db.alloc_rel t.db in
    let heap = Heapfile.create t.db.Db.pool ~rel ~placement:P.placement in
    let pk_index = Index.create t.db in
    let secondary =
      Array.map (fun col -> (col, Index.create t.db)) (Array.of_list secondary)
    in
    let table = { tname; rel; heap; pk_col; pk_index; secondary } in
    t.tables <- t.tables @ [ table ];
    table

  let begin_txn t = Db.begin_txn t.db

  let commit t txn =
    try
      Db.commit t.db txn;
      Ok ()
    with Db.Serialization_failure _ -> Error Engine.Serialization_failure

  let abort t txn = Db.abort t.db txn

  (* The update-in-place engines have no co-located lineage to walk, so
     their serializable-mode reads probe the shared write table
     (PostgreSQL-style); the SIAS engines harvest the same information
     from version metadata instead. *)
  let note_read t txn table pk =
    if t.track then
      Db.note_read t.db ~xid:txn.Txn.xid ~rel:table.rel ~pk ~probe_writes:true

  let note_write t txn table pk =
    if t.track then Db.note_write t.db ~xid:txn.Txn.xid ~rel:table.rel ~pk

  let pk_of table row = Value.to_key row.(table.pk_col)

  (* Add index entries for a new tuple version: PostgreSQL inserts into the
     primary and every secondary index on each (non-HOT) update. *)
  let index_version table ~tid row =
    let tidi = Tid.to_int tid in
    Index.insert table.pk_index ~key:(pk_of table row) ~payload:tidi;
    Array.iter
      (fun (col, index) -> Index.insert index ~key:(Value.to_key row.(col)) ~payload:tidi)
      table.secondary

  let unindex_version table ~tid row =
    let tidi = Tid.to_int tid in
    ignore (Index.delete table.pk_index ~key:(pk_of table row) ~payload:tidi);
    Array.iter
      (fun (col, index) ->
        ignore (Index.delete index ~key:(Value.to_key row.(col)) ~payload:tidi))
      table.secondary

  let place_version t txn table row =
    let item = Tuple.Si.encode ~xmin:txn.Txn.xid ~row in
    let tid = Heapfile.insert_owned table.heap ~owner:txn.Txn.xid item in
    Walcodec.log_heap t.db ~xid:txn.Txn.xid ~rel:table.rel ~kind:Wal.Insert ~tid ~item;
    index_version table ~tid row;
    (* every version pays index maintenance in every index *)
    Db.charge_cpu t.db (1 + Array.length table.secondary);
    tid

  (* The visible version of a data item among the candidate TIDs of its
     primary key, newest first is not guaranteed, so every candidate is
     checked. Returns (tid, item image, header, row). *)
  let find_visible t txn table pk =
    let candidates = Index.lookup table.pk_index ~key:pk in
    Db.charge_cpu t.db (List.length candidates);
    let check tidi =
      let tid = Tid.of_int tidi in
      match Heapfile.read table.heap tid with
      | None -> None
      | Some item ->
          let h = Tuple.Si.header item in
          if Visibility.si_visible_fast t.db ~heap:table.heap ~tid txn.Txn.snapshot h
          then
            let row = Tuple.Si.row item in
            if pk_of table row = pk then Some (tid, item, h, row) else None
          else None
    in
    List.find_map check candidates

  (* Unique-key admission for an insert, like PostgreSQL's unique-index
     check against the latest version state: a visible live duplicate is a
     duplicate-key error; a duplicate that is live "right now" but not
     visible (in-progress inserter, or committed after our snapshot) is a
     write conflict under first-updater-wins. *)
  let insert_conflict t txn table pk =
    let mgr = t.db.Db.txnmgr in
    let candidates = Index.lookup table.pk_index ~key:pk in
    Db.charge_cpu t.db (List.length candidates);
    let verdict_of tidi =
      let tid = Tid.of_int tidi in
      match Heapfile.read table.heap tid with
      | None -> None
      | Some item ->
          let h = Tuple.Si.header item in
          if pk_of table (Tuple.Si.row item) <> pk then None
          else if Visibility.si_visible_fast t.db ~heap:table.heap ~tid txn.Txn.snapshot h
          then Some Engine.Duplicate_key
          else begin
            match Txn.status mgr h.xmin with
            | Txn.Aborted -> None
            | Txn.In_progress ->
                (* own invisible version means we deleted it ourselves *)
                if h.xmin = txn.Txn.xid then None else Some Engine.Write_conflict
            | Txn.Committed ->
                let deleted_for_good =
                  h.xmax <> 0
                  && (h.xmax = txn.Txn.xid || Txn.status mgr h.xmax = Txn.Committed)
                in
                if deleted_for_good then None else Some Engine.Write_conflict
          end
    in
    (* a visible duplicate wins over a conflict verdict *)
    let verdicts = List.filter_map verdict_of candidates in
    if List.mem Engine.Duplicate_key verdicts then Some Engine.Duplicate_key
    else if verdicts <> [] then Some Engine.Write_conflict
    else None

  let insert t txn table row =
    let pk = pk_of table row in
    match insert_conflict t txn table pk with
    | Some e -> Error e
    | None ->
        let _ = place_version t txn table row in
        Db.charge_cpu t.db 1;
        note_write t txn table pk;
        if Db.observed t.db then
          Db.emit t.db
            (Db.Event.Row_write
               { xid = txn.Txn.xid; rel = table.rel; pk; row = Some row });
        Ok ()

  let read t txn table ~pk =
    let row =
      match find_visible t txn table pk with
      | Some (_, _, _, row) -> Some row
      | None -> None
    in
    note_read t txn table pk;
    if Db.observed t.db then
      Db.emit t.db
        (Db.Event.Row_read { xid = txn.Txn.xid; rel = table.rel; pk; row });
    row

  (* First-updater-wins: refuse when the visible version is already
     invalidated by another transaction that is still active or committed
     after our snapshot (no-wait policy, see DESIGN.md). *)
  let check_update_conflict t txn table ~pk (h : Tuple.Si.header) =
    if h.xmax = 0 || h.xmax = txn.Txn.xid then Ok ()
    else
      match Txn.status t.db.Db.txnmgr h.xmax with
      | Txn.Aborted -> Ok ()
      | Txn.Committed ->
          (* first-committer-wins against a finished writer: waiting is
             pointless, the conflict is final *)
          Error Engine.Write_conflict
      | Txn.In_progress -> (
          (* the in-progress invalidator holds the pk writer lock, so the
             conflict policy (wait / wound / detect) decides here *)
          match
            Contention.acquire t.db.Db.contention ~xid:txn.Txn.xid ~rel:table.rel ~key:pk
          with
          | Contention.Abort_self -> Error Engine.Write_conflict
          | Contention.Granted -> Ok ())

  let write_version t txn table ~pk ~make_row ~tombstone =
    match find_visible t txn table pk with
    | None -> Error Engine.Not_found
    | Some (old_tid, old_item, h, old_row) -> (
        match check_update_conflict t txn table ~pk h with
        | Error e -> Error e
        | Ok () -> (
            match Contention.acquire t.db.Db.contention ~xid:txn.Txn.xid ~rel:table.rel ~key:pk with
            | Contention.Abort_self -> Error Engine.Write_conflict
            | Contention.Granted ->
                (* invalidate the old version IN PLACE: the small write SI
                   pays on the old version's page *)
                Tuple.Si.patch_xmax old_item txn.Txn.xid;
                if not (Heapfile.update_in_place table.heap old_tid old_item) then
                  failwith "Si_engine: in-place invalidation failed";
                Walcodec.log_heap t.db ~xid:txn.Txn.xid ~rel:table.rel ~kind:Wal.Update
                  ~tid:old_tid ~item:old_item;
                let new_row = make_row old_row in
                (match new_row with
                | Some row ->
                    if tombstone then failwith "Si_engine: tombstone with a row";
                    let _ = place_version t txn table row in
                    ()
                | None -> ());
                Db.charge_cpu t.db 2;
                note_write t txn table pk;
                if Db.observed t.db then
                  Db.emit t.db
                    (Db.Event.Row_write
                       { xid = txn.Txn.xid; rel = table.rel; pk; row = new_row });
                Ok ()))

  let update t txn table ~pk f =
    write_version t txn table ~pk ~make_row:(fun row -> Some (f row)) ~tombstone:false

  let delete t txn table ~pk =
    write_version t txn table ~pk ~make_row:(fun _ -> None) ~tombstone:false

  let lookup t txn table ~col ~key =
    match Index.find_on table.secondary col with
    | None -> invalid_arg "Si_engine.lookup: no index on column"
    | Some index ->
        let tids = Index.lookup index ~key in
        Db.charge_cpu t.db (List.length tids);
        List.filter_map
          (fun tidi ->
            let tid = Tid.of_int tidi in
            match Heapfile.read table.heap tid with
            | None -> None
            | Some item ->
                let h = Tuple.Si.header item in
                if
                  Visibility.si_visible_fast t.db ~heap:table.heap ~tid
                    txn.Txn.snapshot h
                then
                  let row = Tuple.Si.row item in
                  if Value.to_key row.(col) = key then begin
                    note_read t txn table (pk_of table row);
                    Some row
                  end
                  else None
                else None)
          tids

  let range_pk t txn table ~lo ~hi =
    let entries = Index.range table.pk_index ~lo ~hi in
    Db.charge_cpu t.db (List.length entries);
    List.filter_map
      (fun (key, tidi) ->
        let tid = Tid.of_int tidi in
        match Heapfile.read table.heap tid with
        | None -> None
        | Some item ->
            let h = Tuple.Si.header item in
            if Visibility.si_visible_fast t.db ~heap:table.heap ~tid txn.Txn.snapshot h
            then
              let row = Tuple.Si.row item in
              if Value.to_key row.(table.pk_col) = key then begin
                note_read t txn table key;
                Some row
              end
              else None
            else None)
      entries

  (* Traditional relation scan: fetch every tuple version of the relation
     and check each for visibility. *)
  let scan t txn table f =
    if t.track then
      Db.note_scan t.db ~xid:txn.Txn.xid ~rel:table.rel ~probe_writes:true;
    let count = ref 0 in
    Heapfile.iter table.heap (fun tid item ->
        Db.charge_cpu t.db 1;
        let h = Tuple.Si.header item in
        if Visibility.si_visible_fast t.db ~heap:table.heap ~tid txn.Txn.snapshot h
        then begin
          incr count;
          f (Tuple.Si.row item)
        end);
    !count

  (* Vacuum: physically remove versions no snapshot can ever see, and drop
     their index entries. *)
  let vacuum_table t table =
    let horizon = Txn.horizon t.db.Db.txnmgr in
    let victims = ref [] in
    Heapfile.iter_ro table.heap (fun tid item ->
        let h = Tuple.Si.header item in
        if Visibility.si_dead_for_all t.db.Db.txnmgr ~horizon h then
          victims := (tid, Tuple.Si.row item) :: !victims);
    List.iter
      (fun (tid, row) ->
        Heapfile.delete table.heap tid;
        Walcodec.log_heap t.db ~xid:0 ~rel:table.rel ~kind:Wal.Delete ~tid ~item:Bytes.empty;
        unindex_version table ~tid row;
        t.vacuumed_versions <- t.vacuumed_versions + 1)
      !victims;
    t.vacuumed_pages <- t.vacuumed_pages + Heapfile.nblocks table.heap

  let gc t = List.iter (vacuum_table t) t.tables

  let recover t =
    Walcodec.replay_clog t.db;
    Walcodec.redo t.db ~since_lsn:0;
    List.iter
      (fun table ->
        Sias_chaos.Crashpoint.reach "recover.heap.restore";
        table.heap <- Heapfile.restore t.db.Db.pool ~rel:table.rel ~placement:P.placement;
        table.pk_index <- Index.recover t.db table.pk_index;
        table.secondary <-
          Array.map (fun (col, idx) -> (col, Index.recover t.db idx)) table.secondary;
        (* paged indexes came back from their own replayed pages; only the
           array implementation is rebuilt from the heap (any entries of
           crashed — hence aborted — transactions that redo re-applied to
           a paged index are filtered by visibility, like lazy deletion) *)
        if Index.needs_rebuild table.pk_index then
          Heapfile.iter table.heap (fun tid item ->
              let h = Tuple.Si.header item in
              if Txn.status t.db.Db.txnmgr h.xmin <> Txn.Aborted then
                index_version table ~tid (Tuple.Si.row item)))
      t.tables

  let table_stats t table =
    let total = ref 0 and live = ref 0 in
    Heapfile.iter table.heap (fun _ item ->
        incr total;
        let h = Tuple.Si.header item in
        let invalidated =
          h.xmax <> 0 && Txn.status t.db.Db.txnmgr h.xmax = Txn.Committed
        in
        let aborted = Txn.status t.db.Db.txnmgr h.xmin = Txn.Aborted in
        if (not invalidated) && not aborted then incr live);
    {
      Engine.heap_blocks = Heapfile.nblocks table.heap;
      live_versions = !live;
      total_versions = !total;
      avg_fill = Heapfile.avg_fill table.heap;
    }

  let vacuum_stats t = (t.vacuumed_versions, t.vacuumed_pages)

  let index_summary t =
    List.map (fun table -> (table.tname, Index.summaries table.pk_index table.secondary)) t.tables

end
