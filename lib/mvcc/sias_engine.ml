(* SIAS-Chains: one heap item per version, each carrying the TID of its
   predecessor, so an item's versions form a backward chain from the
   VID_map entrypoint. *)

open Sias_core
module Tid = Sias_storage.Tid
module Heapfile = Sias_storage.Heapfile
module Txn = Sias_txn.Txn

module V = struct
  let name = "SIAS-Chains"

  type version = { tid : Tid.t; item : bytes; h : Tuple.Sias.header }

  let create v = v.h.create
  let seq v = v.h.seq
  let tombstone v = v.h.tombstone
  let row v = Tuple.Sias.row v.item
  let item_vid item = (Tuple.Sias.header item).vid
  let link item = (Tuple.Sias.header item).pred
  let patch_link = Tuple.Sias.patch_pred
  let fetch table tid = Heapfile.read table.heap tid

  (* Algorithm 1's inner loop: walk the chain from the entrypoint and
     return the first version whose creator is visible; a visible
     tombstone means the item is deleted for this snapshot. *)
  let visible t txn table ~vid entry =
    let rec walk tid =
      if Tid.is_invalid tid then None
      else
        match fetch table tid with
        | None -> None (* pruned tail: the chain ends here *)
        | Some item ->
            t.visited <- t.visited + 1;
            Db.charge_cpu t.db 1;
            let h = Tuple.Sias.header item in
            if h.vid <> vid then None (* slot reused after pruning *)
            else if
              Visibility.sias_creator_visible_fast t.db ~heap:table.heap ~tid
                txn.Txn.snapshot ~hint:h.create_hint ~xid:h.create
            then if h.tombstone then None else Some { tid; item; h }
            else begin
              (* The research twist: a skipped chain version names an
                 overlapping writer of this data item right in the
                 co-located lineage — under serializable mode that is
                 an rw antidependency, no lock-table probe needed. *)
              if t.track then
                Db.note_lineage_writer t.db ~reader:txn.Txn.xid ~writer:h.create;
              walk h.pred
            end
    in
    walk entry

  let head t table ~vid entry =
    let rec walk tid =
      if Tid.is_invalid tid then None
      else
        match fetch table tid with
        | None -> None
        | Some item ->
            let h = Tuple.Sias.header item in
            if h.vid <> vid then None
            else (
              match Txn.status t.db.Db.txnmgr h.create with
              | Txn.Aborted -> walk h.pred
              | Txn.In_progress | Txn.Committed -> Some { tid; item; h })
    in
    walk entry

  (* Re-reads the head item: the read is part of the simulated buffer
     trace. *)
  let head_row _t table v = Option.map Tuple.Sias.row (fetch table v.tid)

  let append_version t table ~xid ~seq ~vid ~pred ~tombstone row =
    append_item t table ~xid (Tuple.Sias.encode ~create:xid ~seq ~vid ~pred ~tombstone ~row)

  let append_new t table ~xid ~seq ~vid row =
    append_version t table ~xid ~seq ~vid ~pred:Tid.invalid ~tombstone:false row

  let append_successor t table ~xid ~seq ~vid ~prev ~tombstone row =
    Some (append_version t table ~xid ~seq ~vid ~pred:prev ~tombstone row)

  let iter_versions _t table ~vid entry f =
    let rec walk tid =
      if not (Tid.is_invalid tid) then
        match Heapfile.read_ro table.heap tid with
        | None -> () (* pruned tail *)
        | Some item ->
            let h = Tuple.Sias.header item in
            (* a foreign slot ends the chain *)
            if h.vid = vid then begin
              f vid { tid; item; h };
              walk h.pred
            end
    in
    walk entry

  (* GC mark: walk every chain from its entrypoint and collect the
     versions some present or future snapshot may still need; the first
     dead version truncates the chain (everything older is dead too), and
     a chain dead in its entirety is retired. All GC reads go through the
     vacuum ring so background scans neither stall transactions nor evict
     the working set. *)
  let mark t table =
    let mgr = t.db.Db.txnmgr in
    let horizon = Txn.horizon mgr in
    let live = Hashtbl.create 1024 in
    for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
      match Vidmap.get table.vidmap ~vid with
      | None -> ()
      | Some entry ->
          if locked t table vid then
            (* an active writer owns this item: keep everything reachable *)
            iter_versions t table ~vid entry (fun _ v ->
                Hashtbl.replace live (Tid.to_int v.tid) vid)
          else begin
            let rec walk tid ~succ_committed ~any_live =
              if Tid.is_invalid tid then ()
              else
                match Heapfile.read_ro table.heap tid with
                | None -> ()
                | Some item ->
                    let h = Tuple.Sias.header item in
                    if h.vid <> vid then ()
                    else begin
                      let dead =
                        Visibility.sias_dead_for_all mgr ~horizon ~create:h.create
                          ~successor_create:succ_committed
                        || (h.tombstone && h.create < horizon
                           && Txn.status mgr h.create = Txn.Committed)
                      in
                      if dead then begin
                        if not any_live then retire table ~vid (Tuple.Sias.row item)
                      end
                      else begin
                        Hashtbl.replace live (Tid.to_int tid) vid;
                        let succ_committed =
                          if Txn.status mgr h.create = Txn.Committed then Some h.create
                          else succ_committed
                        in
                        walk h.pred ~succ_committed ~any_live:true
                      end
                    end
            in
            walk entry ~succ_committed:None ~any_live:false
          end
    done;
    live

  (* The newest committed version per VID becomes the entrypoint. *)
  type rank = int * int

  let recovery_rank t _tid item =
    let h = Tuple.Sias.header item in
    if Txn.status t.db.Db.txnmgr h.create = Txn.Committed then Some (h.create, h.seq)
    else None

  let recovered_row _t item =
    if (Tuple.Sias.header item).tombstone then None else Some (Tuple.Sias.row item)

  let total_versions _t table =
    let total = ref 0 in
    Heapfile.iter table.heap (fun _ _ -> incr total);
    !total
end

include Make (V)

(* The traditional scan: read the whole relation, then determine for each
   candidate whether it is the version Algorithm 1 would return. *)
let scan_traditional t txn table f =
  if t.track then Db.note_scan t.db ~xid:txn.Txn.xid ~rel:table.rel ~probe_writes:false;
  let count = ref 0 in
  Heapfile.iter table.heap (fun tid item ->
      Db.charge_cpu t.db 1;
      let h = Tuple.Sias.header item in
      if
        Visibility.sias_creator_visible_fast t.db ~heap:table.heap ~tid txn.Txn.snapshot
          ~hint:h.create_hint ~xid:h.create
      then
        match find_visible t txn table h.vid with
        | Some v when Tid.equal v.V.tid tid ->
            incr count;
            f (Tuple.Sias.row item)
        | _ -> ());
  !count
