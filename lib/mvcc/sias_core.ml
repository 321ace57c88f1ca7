(** The SIAS engine machinery shared by SIAS-Chains and SIAS-V.

    The paper presents SIAS-V as the same append-only, invalidation-free
    design as SIAS-Chains with a different layout of an item's versions.
    Everything the two share lives here: table, VID_map and index setup,
    undo and command-sequence tracking, commit/abort, unique-key
    admission, the write path (first-updater-wins on the newest
    non-aborted version, contention, undo, secondary-index maintenance,
    serializability notes, bus events), the read paths, the sweep-and-TRIM
    phase of garbage collection, the recovery skeleton and the white-box
    invariant checker. {!Make} builds a full engine from a {!VERSION_ORG},
    which supplies only what depends on the version layout;
    [sias_engine.ml] and [sias_vector.ml] are its two instantiations, and
    their interfaces ({!S} plus extras) hide everything else. The types
    below are concrete so the instantiations can implement {!VERSION_ORG}
    against them. *)

module Tid = Sias_storage.Tid
module Heapfile = Sias_storage.Heapfile
module Bufpool = Sias_storage.Bufpool
module Txn = Sias_txn.Txn
module Contention = Sias_txn.Contention
module Wal = Sias_wal.Wal

type table = {
  tname : string;
  rel : int;
  mutable heap : Heapfile.t;
  pk_col : int;
  mutable vidmap : Vidmap.t;
  mutable pk_index : Index.t; (* key = pk, payload = vid *)
  mutable secondary : (int * Index.t) array; (* key = column value, payload = vid *)
}

(* Per-transaction undo: restores the VID_map on abort. [u_old = None]
   means the VID was freshly allocated by this transaction. *)
type undo = { u_table : table; u_vid : int; u_old : Tid.t option; u_pk : int option }

type gc_stats = {
  pruned_items : int;
      (** dead heap items removed by the sweep: chain versions, or
          superseded vector copies *)
  relocated_items : int;  (** live heap items re-appended from reclaimed pages *)
  compacted_items : int;  (** vectors rewritten without dead versions (0 for chains) *)
  reclaimed_pages : int;  (** sealed pages discarded with a TRIM *)
}

type t = {
  db : Db.t;
  mutable tables : table list;
  undo : (int, undo list ref) Hashtbl.t;
  cmd_seq : (int, int ref) Hashtbl.t;
  mutable pruned : int;
  mutable relocated : int;
  mutable compacted : int;
  mutable reclaimed : int;
  mutable walks : int; (* visibility resolutions *)
  mutable visited : int; (* heap items fetched by those resolutions *)
  track : bool;
      (* serializability tracking on (isolation <> `Si); cached so the
         version walks pay one local branch and SI stays byte-identical *)
}

let pk_of table row = Value.to_key row.(table.pk_col)

(* An item with an active writer must not be touched by GC: the writer's
   undo record points at the pre-update entrypoint, which GC would
   otherwise relocate or reap out from under a subsequent abort. *)
let locked t table vid =
  Sias_txn.Lockmgr.holder t.db.Db.lockmgr ~rel:table.rel ~key:vid <> None

let append_item t table ~xid item =
  let tid = Heapfile.insert table.heap item in
  Walcodec.log_heap ~append_only:true t.db ~xid ~rel:table.rel ~kind:Wal.Insert ~tid ~item;
  tid

(* A wholly dead item loses its VID_map entry and its pk index entry. *)
let retire table ~vid row =
  Vidmap.clear table.vidmap ~vid;
  ignore (Index.delete table.pk_index ~key:(pk_of table row) ~payload:vid)

(** What differs between version organisations. Each operation owns a
    whole walk over an item's heap items, so the core makes one call per
    item rather than one per version. Walks that charge simulated CPU do
    so themselves: the sequence of heap reads and charges is part of the
    simulated output. *)
module type VERSION_ORG = sig
  val name : string

  type version
  (** One version as a walk hands it to the core. *)

  val create : version -> int
  val seq : version -> int
  val tombstone : version -> bool
  val row : version -> Value.t array

  val item_vid : bytes -> int
  (** The VID a heap item belongs to. *)

  val link : bytes -> Tid.t
  (** The item's one pointer to older versions (a chain version's
      predecessor, a vector's overflow vector); [Tid.invalid] if none. *)

  val patch_link : bytes -> Tid.t -> unit
  (** Repoint {!link} in place without changing the item length. *)

  val visible : t -> Txn.t -> table -> vid:int -> Tid.t -> version option
  (** From the item's entrypoint, the newest version the snapshot sees;
      [None] if there is none or it is a tombstone. Counts fetched heap
      items in [t.visited]; under serializability tracking, reports each
      skipped version's creator as a lineage writer. *)

  val head : t -> table -> vid:int -> Tid.t -> version option
  (** From the entrypoint, the newest version whose creator did not abort. *)

  val head_row : t -> table -> version -> Value.t array option
  (** The row of a {!head} result, for unique-key admission. *)

  val append_new : t -> table -> xid:int -> seq:int -> vid:int -> Value.t array -> Tid.t
  (** Append the first version of a fresh item; returns its entrypoint. *)

  val append_successor :
    t ->
    table ->
    xid:int ->
    seq:int ->
    vid:int ->
    prev:Tid.t ->
    tombstone:bool ->
    Value.t array ->
    Tid.t option
  (** Append a new version of an item whose entrypoint is [prev]; returns
      the new entrypoint, [None] if [prev] cannot be read. *)

  val mark : t -> table -> (int, int) Hashtbl.t
  (** GC mark: drop versions no snapshot can need ({!retire} items dead in
      their entirety) and return the live heap items, [Tid.to_int tid] to
      VID. *)

  val iter_versions : t -> table -> vid:int -> Tid.t -> (int -> version -> unit) -> unit
  (** Every version reachable from an entrypoint, newest first, with the
      VID of the heap item holding it. Reads through the vacuum ring and
      charges no CPU. *)

  type rank
  (** Ordered by [compare]. *)

  val recovery_rank : t -> Tid.t -> bytes -> rank option
  (** How authoritative a heap item is as its VID's entrypoint after a
      crash; [None] if it holds no committed version. Recovery keeps the
      greatest rank per VID, the first seen on ties. *)

  val recovered_row : t -> bytes -> Value.t array option
  (** The row to index for a chosen entrypoint: its newest committed
      version's, [None] for a tombstone. *)

  val total_versions : t -> table -> int
  (** All versions stored for the table, for its statistics. *)
end

(** The interface both instantiations export. *)
module type S = sig
  include Engine.S

  val gc_stats : t -> gc_stats

  val walk_stats : t -> int * int
  (** (visibility resolutions, heap items they fetched): chain versions
      for SIAS-Chains, vectors for SIAS-V. *)

  val table_vidmap : t -> table -> Vidmap.t
  (** Expose the VID_map for white-box tests and benches. *)

  val check_invariants : t -> table -> unit
  (** White-box structural invariants (newest-first version order, VID
      integrity, entrypoint resolution, index reachability); raises
      [Failure] with a description on violation. *)
end

module Make (V : VERSION_ORG) = struct
  type nonrec t = t
  type nonrec table = table

  let name = V.name

  let create db =
    Walcodec.install_repair db;
    {
      db;
      tables = [];
      undo = Hashtbl.create 64;
      cmd_seq = Hashtbl.create 64;
      pruned = 0;
      relocated = 0;
      compacted = 0;
      reclaimed = 0;
      walks = 0;
      visited = 0;
      track = Db.ssi_tracking db;
    }

  let db t = t.db

  let new_vidmap t =
    if t.db.Db.vidmap_paged then Vidmap.create ~backing:(t.db.Db.pool, Db.alloc_rel t.db) ()
    else Vidmap.create ()

  let create_table t ~name:tname ~pk_col ?(secondary = []) () =
    let rel = Db.alloc_rel t.db in
    let heap =
      Heapfile.create ?seal_interval:t.db.Db.append_seal_interval t.db.Db.pool ~rel
        ~placement:Heapfile.Append_only
    in
    let pk_index = Index.create t.db in
    let secondary =
      Array.map (fun col -> (col, Index.create t.db)) (Array.of_list secondary)
    in
    let vidmap = new_vidmap t in
    let table = { tname; rel; heap; pk_col; vidmap; pk_index; secondary } in
    t.tables <- t.tables @ [ table ];
    table

  let begin_txn t = Db.begin_txn t.db

  let cell tbl xid init =
    match Hashtbl.find_opt tbl xid with
    | Some c -> c
    | None ->
        let c = ref init in
        Hashtbl.replace tbl xid c;
        c

  let next_seq t xid =
    let c = cell t.cmd_seq xid 0 in
    incr c;
    !c

  let push_undo t xid u =
    let c = cell t.undo xid [] in
    c := u :: !c

  let forget_txn t xid =
    Hashtbl.remove t.undo xid;
    Hashtbl.remove t.cmd_seq xid

  let commit t txn =
    forget_txn t txn.Txn.xid;
    try
      Db.commit t.db txn;
      Ok ()
    with Db.Serialization_failure _ -> Error Engine.Serialization_failure

  let abort t txn =
    (match Hashtbl.find_opt t.undo txn.Txn.xid with
    | None -> ()
    | Some cell ->
        List.iter
          (fun u ->
            (match u.u_old with
            | Some tid -> Vidmap.set u.u_table.vidmap ~vid:u.u_vid tid
            | None -> Vidmap.clear u.u_table.vidmap ~vid:u.u_vid);
            match (u.u_old, u.u_pk) with
            | None, Some pk ->
                (* fresh insert: retract the data item's index entry *)
                ignore (Index.delete u.u_table.pk_index ~key:pk ~payload:u.u_vid)
            | _ -> ())
          !cell);
    forget_txn t txn.Txn.xid;
    Db.abort t.db txn

  (* Algorithm 1: resolve a VID through its entrypoint to the version the
     snapshot sees; a visible tombstone means deleted for this snapshot. *)
  let find_visible t txn table vid =
    match Vidmap.get table.vidmap ~vid with
    | None -> None
    | Some entry ->
        t.walks <- t.walks + 1;
        V.visible t txn table ~vid entry

  (* The newest non-aborted version, the update conflict check's target. *)
  let head t table vid =
    match Vidmap.get table.vidmap ~vid with
    | None -> None
    | Some entry -> V.head t table ~vid entry

  (* Find the data item carrying [pk]: resolve candidate VIDs through the
     index, then pick the one whose visible version really has the key. *)
  let find_item t txn table pk =
    let vids = Index.lookup table.pk_index ~key:pk in
    Db.charge_cpu t.db (List.length vids);
    List.find_map
      (fun vid ->
        match find_visible t txn table vid with
        | Some v ->
            let row = V.row v in
            if pk_of table row = pk then Some (vid, v, row) else None
        | None -> None)
      vids

  (* Unique-key admission, mirroring the SI engine's check: the newest
     non-aborted version of any data item carrying this key decides —
     visible live duplicate, in-progress writer, or a live version committed
     after our snapshot. *)
  let insert_conflict t txn table pk =
    if Option.is_some (find_item t txn table pk) then Some Engine.Duplicate_key
    else begin
      let mgr = t.db.Db.txnmgr in
      let vids = Index.lookup table.pk_index ~key:pk in
      let conflict vid =
        match head t table vid with
        | None -> false
        | Some h -> (
            match V.head_row t table h with
            | None -> false
            | Some row ->
                pk_of table row = pk
                && V.create h <> txn.Txn.xid
                && (match Txn.status mgr (V.create h) with
                   | Txn.In_progress ->
                       (* another transaction is inserting, updating or
                          deleting this key right now *)
                       true
                   | Txn.Committed ->
                       (* live but invisible means it committed after our
                          snapshot; a committed tombstone frees the key *)
                       not (V.tombstone h)
                   | Txn.Aborted -> false))
      in
      if List.exists conflict vids then Some Engine.Write_conflict else None
    end

  let note_row_write t ~xid table ~pk row =
    if t.track then Db.note_write t.db ~xid ~rel:table.rel ~pk;
    if Db.observed t.db then Db.emit t.db (Db.Event.Row_write { xid; rel = table.rel; pk; row })

  let insert t txn table row =
    let pk = pk_of table row in
    match insert_conflict t txn table pk with
    | Some e -> Error e
    | None ->
        let xid = txn.Txn.xid in
        let vid = Vidmap.alloc_vid table.vidmap in
        let tid = V.append_new t table ~xid ~seq:(next_seq t xid) ~vid row in
        Vidmap.set table.vidmap ~vid tid;
        push_undo t xid { u_table = table; u_vid = vid; u_old = None; u_pk = Some pk };
        Index.insert table.pk_index ~key:pk ~payload:vid;
        Array.iter
          (fun (col, index) -> Index.insert index ~key:(Value.to_key row.(col)) ~payload:vid)
          table.secondary;
        (* index maintenance happens once per data item, not per version *)
        Db.charge_cpu t.db (2 + Array.length table.secondary);
        note_row_write t ~xid table ~pk (Some row);
        Ok ()

  (* Algorithm 3. The update must start from the entrypoint: if a newer
     (non-aborted) version than the one visible to us exists, another
     transaction got there first. *)
  let write_version t txn table ~pk ~make_row ~tombstone =
    match find_item t txn table pk with
    | None -> Error Engine.Not_found
    | Some (vid, visible, old_row) -> (
        let xid = txn.Txn.xid in
        match head t table vid with
        | None -> Error Engine.Not_found
        | Some h ->
            let head_in_progress =
              V.create h <> xid && Txn.status t.db.Db.txnmgr (V.create h) = Txn.In_progress
            in
            (* the in-progress writer of the head holds the vid writer
               lock, so the conflict policy decides this case *)
            let blocked =
              head_in_progress
              && Contention.acquire t.db.Db.contention ~xid ~rel:table.rel ~key:vid
                 = Contention.Abort_self
            in
            let head_is_visible =
              V.create h = V.create visible && V.seq h = V.seq visible
            in
            if blocked || not head_is_visible then Error Engine.Write_conflict
            else (
              match Contention.acquire t.db.Db.contention ~xid ~rel:table.rel ~key:vid with
              | Contention.Abort_self -> Error Engine.Write_conflict
              | Contention.Granted -> (
                  match Vidmap.get table.vidmap ~vid with
                  | None -> Error Engine.Not_found
                  | Some prev -> (
                      let row = match make_row old_row with Some r -> r | None -> old_row in
                      if (not tombstone) && pk_of table row <> pk then
                        invalid_arg (V.name ^ ".update: primary key must not change");
                      match
                        V.append_successor t table ~xid ~seq:(next_seq t xid) ~vid ~prev
                          ~tombstone row
                      with
                      | None -> Error Engine.Not_found
                      | Some tid ->
                          push_undo t xid
                            { u_table = table; u_vid = vid; u_old = Some prev; u_pk = None };
                          Vidmap.set table.vidmap ~vid tid;
                          (* index maintenance only when an indexed key changed *)
                          if not tombstone then
                            Array.iter
                              (fun (col, index) ->
                                let old_key = Value.to_key old_row.(col) in
                                let new_key = Value.to_key row.(col) in
                                if old_key <> new_key then
                                  Index.insert index ~key:new_key ~payload:vid)
                              table.secondary;
                          Db.charge_cpu t.db 1;
                          note_row_write t ~xid table ~pk (if tombstone then None else Some row);
                          Ok ()))))

  let update t txn table ~pk f =
    write_version t txn table ~pk ~make_row:(fun row -> Some (f row)) ~tombstone:false

  let delete t txn table ~pk =
    write_version t txn table ~pk ~make_row:(fun _ -> None) ~tombstone:true

  let read t txn table ~pk =
    let row = match find_item t txn table pk with Some (_, _, row) -> Some row | None -> None in
    (* overlapping writers were already reported by the lineage walk *)
    if t.track then
      Db.note_read t.db ~xid:txn.Txn.xid ~rel:table.rel ~pk ~probe_writes:false;
    if Db.observed t.db then
      Db.emit t.db (Db.Event.Row_read { xid = txn.Txn.xid; rel = table.rel; pk; row });
    row

  (* The row an index entry leads to, if its visible version still has
     the entry's key: entries go stale when a key changes. *)
  let indexed_row t txn table vid has_key =
    match find_visible t txn table vid with
    | Some v ->
        let row = V.row v in
        if has_key row then begin
          if t.track then
            Db.note_read t.db ~xid:txn.Txn.xid ~rel:table.rel ~pk:(pk_of table row)
              ~probe_writes:false;
          Some row
        end
        else None
    | None -> None

  let lookup t txn table ~col ~key =
    match Index.find_on table.secondary col with
    | None -> invalid_arg (V.name ^ ".lookup: no index on column")
    | Some index ->
        let vids = Index.lookup index ~key in
        Db.charge_cpu t.db (List.length vids);
        let has_key row = Value.to_key row.(col) = key in
        List.filter_map (fun vid -> indexed_row t txn table vid has_key) vids

  let range_pk t txn table ~lo ~hi =
    let entries = Index.range table.pk_index ~lo ~hi in
    Db.charge_cpu t.db (List.length entries);
    List.filter_map
      (fun (key, vid) -> indexed_row t txn table vid (fun row -> pk_of table row = key))
      entries

  (* Algorithm 1: scan over the VID_map, fetching only entrypoints (and
     older versions when the snapshot needs them). *)
  let scan t txn table f =
    (* Predicate SIREAD only — the per-vid walks below surface every
       overlapping writer (even a phantom insert allocates its vid before
       commit, so its invisible version is walked and harvested). *)
    if t.track then
      Db.note_scan t.db ~xid:txn.Txn.xid ~rel:table.rel ~probe_writes:false;
    let count = ref 0 in
    for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
      match find_visible t txn table vid with
      | Some v ->
          incr count;
          f (V.row v)
      | None -> ()
    done;
    !count

  (* ---------------------------------------------------------------- *)
  (* Garbage collection (paper Section 6, Space Reclamation)           *)

  (* Mark-and-sweep in the spirit of log-structured space reclamation.
     [V.mark] drops the versions no present or future snapshot may need
     (retiring items that are dead in their entirety) and returns the
     live heap items. The sweep then (i) deletes dead slots only on pages
     not yet on stable storage (marking there is free — the page will be
     written once anyway), and (ii) for sealed victim pages whose live
     fraction is below the threshold, re-inserts the live items at the
     append tail, repairs the single incoming reference of each, and
     discards the whole page with a TRIM — never a small in-place write. *)

  (* Re-append a live item and repair the unique reference to it: its
     VID_map entry, or the [V.link] of the item one step newer. *)
  let relocate t table live old_tid =
    (* re-fetch: an earlier relocation's link repair may have patched this
       very item in place after the sweep captured the page; all GC reads
       go through the vacuum ring *)
    match Heapfile.read_ro table.heap old_tid with
    | None -> ()
    | Some item ->
        let vid = V.item_vid item in
        let new_tid = append_item t table ~xid:0 item in
        Hashtbl.remove live (Tid.to_int old_tid);
        Hashtbl.replace live (Tid.to_int new_tid) vid;
        (match Vidmap.get table.vidmap ~vid with
        | Some entry when Tid.equal entry old_tid -> Vidmap.set table.vidmap ~vid new_tid
        | Some entry ->
            let rec repair tid =
              if not (Tid.is_invalid tid) then
                match Heapfile.read_ro table.heap tid with
                | None -> ()
                | Some referrer ->
                    let next = V.link referrer in
                    if Tid.equal next old_tid then begin
                      V.patch_link referrer new_tid;
                      if not (Heapfile.update_in_place table.heap tid referrer) then
                        failwith (V.name ^ ".gc: link patch failed");
                      Walcodec.log_heap t.db ~xid:0 ~rel:table.rel ~kind:Wal.Update ~tid
                        ~item:referrer
                    end
                    else repair next
            in
            repair entry
        | None -> ());
        t.relocated <- t.relocated + 1

  let sweep t table live ~fill_threshold =
    let nblocks = Heapfile.nblocks table.heap in
    let tail = match Heapfile.last_block table.heap with Some b -> b | None -> -1 in
    let page_size = Bufpool.page_size t.db.Db.pool in
    for block = 0 to nblocks - 1 do
      if not (Heapfile.discarded table.heap block) then begin
        let slots = ref [] in
        Bufpool.with_page_ro t.db.Db.pool ~rel:table.rel ~block (fun page ->
            Sias_storage.Page.iter page (fun slot item ->
                slots := (Tid.make ~block ~slot, item) :: !slots));
        let live_slots, dead_slots =
          List.partition (fun (tid, _) -> Hashtbl.mem live (Tid.to_int tid)) !slots
        in
        if !slots <> [] then
          if not (Heapfile.sealed table.heap block) then
            List.iter
              (fun (tid, _) ->
                Heapfile.delete table.heap tid;
                Walcodec.log_heap t.db ~xid:0 ~rel:table.rel ~kind:Wal.Delete ~tid
                  ~item:Bytes.empty;
                t.pruned <- t.pruned + 1)
              dead_slots
          else begin
            let live_bytes =
              List.fold_left (fun acc (_, item) -> acc + Bytes.length item) 0 live_slots
            in
            let movable =
              List.for_all (fun (_, item) -> not (locked t table (V.item_vid item))) live_slots
            in
            if movable && block <> tail
               && float_of_int live_bytes /. float_of_int page_size < fill_threshold
            then begin
              List.iter (fun (tid, _) -> relocate t table live tid) live_slots;
              t.pruned <- t.pruned + List.length dead_slots;
              Heapfile.discard_block table.heap block;
              Walcodec.log_heap t.db ~xid:0 ~rel:table.rel ~kind:Wal.Trim
                ~tid:(Tid.make ~block ~slot:0) ~item:Bytes.empty;
              t.reclaimed <- t.reclaimed + 1
            end
          end
      end
    done

  let gc t =
    List.iter
      (fun table ->
        let live = V.mark t table in
        sweep t table live ~fill_threshold:0.55)
      t.tables

  (* ---------------------------------------------------------------- *)
  (* Recovery (paper Section 6): replay the heap, then reconstruct the
     VID_map and indexes from on-tuple information alone. *)

  let recover t =
    Walcodec.replay_clog t.db;
    Walcodec.redo t.db ~since_lsn:0;
    List.iter
      (fun table ->
        Sias_chaos.Crashpoint.reach "recover.heap.restore";
        table.heap <-
          Heapfile.restore t.db.Db.pool ~rel:table.rel ~placement:Heapfile.Append_only;
        table.vidmap <- new_vidmap t;
        table.pk_index <- Index.recover t.db table.pk_index;
        table.secondary <-
          Array.map (fun (col, idx) -> (col, Index.recover t.db idx)) table.secondary;
        (* paged indexes were replayed in place; only the array
           implementation is rebuilt below (stale entries of crashed
           transactions in a paged index are filtered by visibility) *)
        let rebuild = Index.needs_rebuild table.pk_index in
        (* the highest-ranked copy per VID becomes the entrypoint *)
        let best = Hashtbl.create 1024 in
        let max_vid = ref (-1) in
        Heapfile.iter table.heap (fun tid item ->
            let vid = V.item_vid item in
            if vid > !max_vid then max_vid := vid;
            match V.recovery_rank t tid item with
            | None -> ()
            | Some rank -> (
                match Hashtbl.find_opt best vid with
                | Some (r, _, _) when compare rank r <= 0 -> ()
                | _ -> Hashtbl.replace best vid (rank, tid, item)));
        for _ = 0 to !max_vid do
          ignore (Vidmap.alloc_vid table.vidmap)
        done;
        Hashtbl.iter
          (fun vid (_, tid, item) ->
            Vidmap.set table.vidmap ~vid tid;
            if rebuild then
              match V.recovered_row t item with
              | Some row ->
                  Index.insert table.pk_index ~key:(pk_of table row) ~payload:vid;
                  Array.iter
                    (fun (col, index) ->
                      Index.insert index ~key:(Value.to_key row.(col)) ~payload:vid)
                    table.secondary
              | None -> ())
          best)
      t.tables

  (* White-box invariant checker used by the property-test suite. Raises
     [Failure] with a description when an invariant is broken:
     - order: walking an item from its entrypoint, (create, seq) strictly
       decreases;
     - vid integrity: every version reached carries the item's VID;
     - entrypoint: the VID_map entry resolves to a heap item of its VID;
     - index reachability: every committed live head's primary key
       resolves to its VID through the pk index. *)
  let check_invariants t table =
    let mgr = t.db.Db.txnmgr in
    for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
      match Vidmap.get table.vidmap ~vid with
      | None -> ()
      | Some entry -> (
          let prev = ref None and newest = ref None in
          V.iter_versions t table ~vid entry (fun item_vid v ->
              if item_vid <> vid then
                failwith (Printf.sprintf "vid %d reaches a version of vid %d" vid item_vid);
              let c, s = (V.create v, V.seq v) in
              (match !prev with
              | Some (pc, ps) when (c, s) >= (pc, ps) ->
                  failwith
                    (Printf.sprintf "version order violated for vid %d: (%d,%d) under (%d,%d)"
                       vid c s pc ps)
              | _ -> ());
              if Option.is_none !newest then newest := Some v;
              prev := Some (c, s));
          (match Heapfile.read table.heap entry with
          | None -> failwith (Printf.sprintf "vid %d entrypoint dangles" vid)
          | Some item ->
              let ivid = V.item_vid item in
              if ivid <> vid then
                failwith (Printf.sprintf "vid %d entrypoint aliases vid %d" vid ivid));
          match !newest with
          | Some v when (not (V.tombstone v)) && Txn.status mgr (V.create v) = Txn.Committed ->
              let pk = pk_of table (V.row v) in
              if not (List.mem vid (Index.lookup table.pk_index ~key:pk)) then
                failwith (Printf.sprintf "vid %d unreachable through pk index" vid)
          | _ -> ())
    done

  let table_stats t table =
    let total = V.total_versions t table in
    let live = ref 0 in
    Vidmap.iter table.vidmap (fun vid entry ->
        match V.head t table ~vid entry with
        | Some h when not (V.tombstone h) -> incr live
        | _ -> ());
    {
      Engine.heap_blocks = Heapfile.live_blocks table.heap;
      live_versions = !live;
      total_versions = total;
      avg_fill = Heapfile.avg_fill table.heap;
    }

  let gc_stats t =
    {
      pruned_items = t.pruned;
      relocated_items = t.relocated;
      compacted_items = t.compacted;
      reclaimed_pages = t.reclaimed;
    }

  let walk_stats t = (t.walks, t.visited)

  let table_vidmap _t table = table.vidmap

  let index_summary t =
    List.map (fun table -> (table.tname, Index.summaries table.pk_index table.secondary)) t.tables
end
