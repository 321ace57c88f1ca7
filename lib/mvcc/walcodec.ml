module Tid = Sias_storage.Tid
module Page = Sias_storage.Page
module Bufpool = Sias_storage.Bufpool
module Wal = Sias_wal.Wal
module Txn = Sias_txn.Txn
module Crashpoint = Sias_chaos.Crashpoint

exception Redo_divergence of { rel : int; block : int; detail : string }
(* Redo replayed a verified record against a page whose content
   contradicts it — a bug in the append discipline or the redo rules, not
   recoverable data damage. Loud and typed so chaos schedules catch it. *)

let () =
  Printexc.register_printer (function
    | Redo_divergence { rel; block; detail } ->
        Some
          (Printf.sprintf
             "Walcodec.Redo_divergence: WAL replay diverged from the page \
              state on rel %d block %d (%s); the log and the page disagree — \
              this is a redo-rule bug, not disk damage"
             rel block detail)
    | _ -> None)

(* Payload: tid (int64), flags (u8, bit 0 = append-only page discipline),
   item bytes. The flag matters at redo: a page recreated from nothing
   must apply the same slot-allocation rule the original insert used, or
   replayed slots diverge. Full_page records reuse the same envelope with
   the raw page image as the item (slot part of the tid is unused). *)
let envelope_bytes = 9

let encode ?(append_only = false) tid item =
  let b = Bytes.create (envelope_bytes + Bytes.length item) in
  Bytes.set_int64_le b 0 (Int64.of_int (Tid.to_int tid));
  Bytes.set_uint8 b 8 (if append_only then 1 else 0);
  Bytes.blit item 0 b envelope_bytes (Bytes.length item);
  b

let decode b =
  let tid = Tid.of_int (Int64.to_int (Bytes.get_int64_le b 0)) in
  let append_only = Bytes.get_uint8 b 8 land 1 = 1 in
  (tid, append_only, Bytes.sub b 9 (Bytes.length b - 9))

module Pbt = Sias_index.Paged_btree

(* Ix_batch payload — one logical paged-index structural change as an
   atomic list of per-page slot deltas: u16 delta count, then per delta
   an i32 LE block, a u8 tag (0 = Ins, 1 = Upd, 2 = Del; bit 7 = the
   block was first allocated by this very batch, so it has no pre-image
   to protect), a u16 slot (meaningful for Upd/Del; Ins replays its slot
   deterministically from the page bytes), a u16 item length and the
   item bytes. The record CRC covers the whole list, which is what makes
   a multi-page split or merge all-or-nothing at replay. *)
let encode_deltas (deltas : Pbt.delta list) =
  let buf = Buffer.create 256 in
  Buffer.add_uint16_le buf (List.length deltas);
  List.iter
    (fun (d : Pbt.delta) ->
      Buffer.add_int32_le buf (Int32.of_int d.d_block);
      let tag, slot, item =
        match d.d_op with
        | Pbt.Ins b -> (0, 0, b)
        | Pbt.Upd (s, b) -> (1, s, b)
        | Pbt.Del s -> (2, s, Bytes.empty)
      in
      Buffer.add_uint8 buf (tag lor if d.d_new then 0x80 else 0);
      Buffer.add_uint16_le buf slot;
      Buffer.add_uint16_le buf (Bytes.length item);
      Buffer.add_bytes buf item)
    deltas;
  Buffer.to_bytes buf

let decode_deltas b =
  let pos = ref 0 in
  let u16 () =
    let v = Bytes.get_uint16_le b !pos in
    pos := !pos + 2;
    v
  in
  let n = u16 () in
  let rec go i acc =
    if i = n then List.rev acc
    else begin
      let block = Int32.to_int (Bytes.get_int32_le b !pos) in
      pos := !pos + 4;
      let tag = Bytes.get_uint8 b !pos in
      incr pos;
      let slot = u16 () in
      let len = u16 () in
      let item = Bytes.sub b !pos len in
      pos := !pos + len;
      let d_op =
        match tag land 0x7f with
        | 0 -> Pbt.Ins item
        | 1 -> Pbt.Upd (slot, item)
        | 2 -> Pbt.Del slot
        | t -> failwith (Printf.sprintf "Walcodec.decode_deltas: bad tag %d" t)
      in
      go (i + 1) ({ Pbt.d_block = block; d_new = tag land 0x80 <> 0; d_op } :: acc)
    end
  in
  go 0 []

let delta_blocks deltas =
  List.fold_left
    (fun acc (d : Pbt.delta) ->
      if List.mem_assoc d.d_block acc then acc else (d.d_block, d.d_new) :: acc)
    [] deltas
  |> List.rev

(* Full-page writes: the first modification of a (rel, block) after a
   checkpoint logs the whole post-change page image instead of the item
   record (PostgreSQL's backup blocks). The image is stamped with its own
   record's LSN before capture, so redo's page-LSN guard treats the
   install exactly like any other record. A torn data-page write found at
   recovery is then repairable from the latest image plus the item
   records that follow it. Trim is exempt: replaying it recreates the
   empty page with no image needed.

   The caller has already changed the page, so any emergency WAL
   reclamation must run before the full-page decision: it checkpoints the
   changed page under its old LSN and resets [fpw_done], and the record
   then becomes an image that holds the change. Reclaiming after the
   decision would land an item record behind the checkpoint, and redo
   would apply it to a page that already has it. *)
let log_heap ?append_only db ~xid ~rel ~kind ~tid ~item =
  Db.make_wal_room db ~payload_bytes:(envelope_bytes + Bytes.length item);
  let block = Tid.block tid in
  let fpw = kind <> Wal.Trim && not (Hashtbl.mem db.Db.fpw_done (rel, block)) in
  if fpw then begin
    Crashpoint.reach "walcodec.fpw.pre";
    Hashtbl.replace db.Db.fpw_done (rel, block) ();
    let lsn = Wal.next_lsn db.Db.wal in
    let image =
      Bufpool.with_page db.Db.pool ~rel ~block (fun page ->
          Page.set_lsn page lsn;
          Page.to_bytes page)
    in
    let lsn' =
      Db.log_op db ~xid ~rel ~kind:Wal.Full_page
        ~payload:(encode ?append_only tid image)
    in
    (* An emergency WAL reclamation inside [log_op] appends its own
       checkpoint record first, so the image's record can land past the
       pre-stamped lsn. The stamp inside the captured image stays at the
       older value — still monotonic, since nothing else touched this
       page in between — but the pooled page must carry the record's
       real lsn for write-back ordering. *)
    assert (lsn' >= lsn);
    if lsn' <> lsn then
      Bufpool.with_page db.Db.pool ~rel ~block (fun page ->
          Page.set_lsn page lsn')
  end
  else begin
    let lsn = Db.log_op db ~xid ~rel ~kind ~payload:(encode ?append_only tid item) in
    Bufpool.with_page db.Db.pool ~rel ~block (fun page -> Page.set_lsn page lsn)
  end

(* WAL-first logger injected into {!Sias_index.Paged_btree}: full-page-
   write protect every touched pre-existing block on its first
   modification since the last checkpoint (the captured image is the
   {e pre}-batch page — the batch's own deltas replay on top of it),
   then append the whole structural change as one atomic Ix_batch
   record and return its LSN. The tree applies the deltas only after
   this returns, so a crash at any point leaves either no trace or a
   fully replayable record. xid 0: index deltas are redo-only and
   belong to no transaction — heap visibility decides what the entries
   mean. *)
let log_index db ~rel (deltas : Pbt.delta list) =
  List.iter
    (fun (block, is_new) ->
      if (not is_new) && not (Hashtbl.mem db.Db.fpw_done (rel, block)) then begin
        Crashpoint.reach "index.fpw.pre";
        Hashtbl.replace db.Db.fpw_done (rel, block) ();
        let lsn = Wal.next_lsn db.Db.wal in
        let image =
          Bufpool.with_page db.Db.pool ~rel ~block (fun page ->
              Page.set_lsn page lsn;
              Page.to_bytes page)
        in
        let lsn' =
          Db.log_op db ~xid:0 ~rel ~kind:Wal.Full_page
            ~payload:(encode (Tid.make ~block ~slot:0) image)
        in
        (* same emergency-reclamation race as in [log_heap] *)
        assert (lsn' >= lsn);
        if lsn' <> lsn then
          Bufpool.with_page db.Db.pool ~rel ~block (fun page ->
              Page.set_lsn page lsn')
      end)
    (delta_blocks deltas);
  Db.log_op db ~xid:0 ~rel ~kind:Wal.Ix_batch ~payload:(encode_deltas deltas)

(* Apply one heap record to a bare page, guarded by the page LSN.
   Returns whether the page changed. Shared by buffer-pool redo and
   out-of-pool page repair. *)
let apply_to_page page (r : Wal.record) =
  match r.kind with
  | Wal.Full_page ->
      let _, _, image = decode r.payload in
      if Page.lsn page < r.lsn then begin
        Page.overwrite page image;
        true
      end
      else false
  | Wal.Insert | Wal.Update | Wal.Delete ->
      let tid, append_only, item = decode r.payload in
      if Page.lsn page < r.lsn then begin
        if append_only then Page.set_no_slot_reuse page;
        (match r.kind with
        | Wal.Insert -> (
            match Page.insert page item with
            | Some slot when slot = Tid.slot tid -> ()
            | Some _ | None ->
                raise
                  (Redo_divergence
                     {
                       rel = r.rel;
                       block = Tid.block tid;
                       detail =
                         Printf.sprintf "insert at lsn %d replayed to a \
                                         different slot than %d"
                           r.lsn (Tid.slot tid);
                     }))
        | Wal.Update ->
            if not (Page.update page (Tid.slot tid) item) then
              raise
                (Redo_divergence
                   {
                     rel = r.rel;
                     block = Tid.block tid;
                     detail =
                       Printf.sprintf
                         "update at lsn %d did not fit in slot %d" r.lsn
                         (Tid.slot tid);
                   })
        | Wal.Delete -> Page.delete page (Tid.slot tid)
        | _ -> assert false);
        Page.set_lsn page r.lsn;
        true
      end
      else false
  | _ -> false

let redo db ~since_lsn =
  Crashpoint.reach "recover.redo.pre";
  let records, _tail = Wal.verified_from db.Db.wal ~lsn:since_lsn in
  List.iter
    (fun (r : Wal.record) ->
      Crashpoint.reach "recover.redo.record";
      match r.kind with
      | Wal.Trim when r.rel >= 0 ->
          let tid, _, _ = decode r.payload in
          Bufpool.trim_block db.Db.pool ~rel:r.rel ~block:(Tid.block tid);
          Bufpool.with_page db.Db.pool ~rel:r.rel ~block:(Tid.block tid) (fun page ->
              Page.set_lsn page r.lsn)
      | (Wal.Insert | Wal.Update | Wal.Delete | Wal.Full_page) when r.rel >= 0 ->
          let tid, _, _ = decode r.payload in
          Bufpool.with_page db.Db.pool ~rel:r.rel ~block:(Tid.block tid) (fun page ->
              if apply_to_page page r then
                Bufpool.mark_dirty db.Db.pool ~rel:r.rel ~block:(Tid.block tid))
      | Wal.Ix_batch when r.rel >= 0 ->
          (* one atomic paged-index structural change: apply each touched
             block's deltas in order behind its page-LSN gate, so blocks
             flushed after the original apply are not double-applied and
             blocks the crash caught unwritten are completed *)
          let deltas = decode_deltas r.payload in
          List.iter
            (fun (block, _) ->
              let changed = ref false in
              Bufpool.with_page db.Db.pool ~rel:r.rel ~block (fun page ->
                  if Page.lsn page < r.lsn then begin
                    List.iter
                      (fun (d : Pbt.delta) ->
                        if d.d_block = block then Pbt.apply_delta page d)
                      deltas;
                    Page.set_lsn page r.lsn;
                    changed := true
                  end);
              if !changed then begin
                Bufpool.mark_dirty db.Db.pool ~rel:r.rel ~block;
                if Db.observed db then
                  Db.emit db
                    (Sias_obs.Bus.Index_page_io
                       {
                         rel = r.rel;
                         block;
                         deltas =
                           List.length
                             (List.filter
                                (fun (d : Pbt.delta) -> d.d_block = block)
                                deltas);
                       })
              end)
            (delta_blocks deltas)
      | _ -> ())
    records

let replay_clog db =
  Crashpoint.reach "recover.clog.pre";
  let records, _tail = Wal.verified_from db.Db.wal ~lsn:0 in
  (* Checkpoint records carry a CLOG snapshot (8-byte LE next_xid + dense
     image) taken when the log below them was reclaimed: restore the
     newest one first, so verdicts of transactions whose commit/abort
     records were truncated away survive. Transactions in progress at the
     snapshot crashed with it — restore flips them to aborted; if one in
     fact committed, its commit record is necessarily retained (a commit
     is a transaction's last record, so it sits at or after any
     checkpoint that still retains the transaction) and the overlay below
     re-marks it. *)
  List.iter
    (fun (r : Wal.record) ->
      if r.kind = Wal.Checkpoint && Bytes.length r.payload >= 8 then
        Txn.clog_restore db.Db.txnmgr
          ~next_xid:(Int64.to_int (Bytes.get_int64_le r.payload 0))
          ~image:
            (Bytes.sub_string r.payload 8 (Bytes.length r.payload - 8)))
    records;
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (r : Wal.record) ->
      if r.xid > 0 && not (Hashtbl.mem seen r.xid) then Hashtbl.replace seen r.xid false)
    records;
  List.iter
    (fun (r : Wal.record) ->
      match r.kind with
      | Wal.Commit -> Hashtbl.replace seen r.xid true
      | _ -> ())
    records;
  Hashtbl.iter
    (fun xid committed -> Txn.mark_recovered db.Db.txnmgr ~xid ~committed)
    seen;
  Crashpoint.reach "recover.clog.post"

(* Rebuild one heap page purely from the WAL — never through the buffer
   pool, so a repair triggered mid-read cannot recurse. Base image: the
   latest Full_page record for the block, or an empty page when the log
   is complete from the beginning; every later heap record for the block
   is applied on top. [None] when the block never appears in the log
   (array-index and VID_map pages are not WAL-logged and cannot be
   repaired — the read then fails loudly with [Corrupt_page]; paged-index
   pages are covered through their Ix_batch deltas and full-page
   images exactly like heap pages). *)
let repair_page db ~rel ~block =
  Crashpoint.reach "walcodec.repair.pre";
  let records, _tail = Wal.verified_from db.Db.wal ~lsn:0 in
  let mine =
    List.filter
      (fun (r : Wal.record) ->
        r.rel = rel
        &&
        match r.kind with
        | Wal.Insert | Wal.Update | Wal.Delete | Wal.Trim | Wal.Full_page ->
            let tid, _, _ = decode r.payload in
            Tid.block tid = block
        | Wal.Ix_batch ->
            List.exists
              (fun (d : Pbt.delta) -> d.d_block = block)
              (decode_deltas r.payload)
        | _ -> false)
      records
  in
  if mine = [] then None
  else begin
    let base_lsn =
      List.fold_left
        (fun acc (r : Wal.record) ->
          if r.kind = Wal.Full_page then Stdlib.max acc r.lsn else acc)
        0 mine
    in
    if base_lsn = 0 && Wal.oldest_retained db.Db.wal > 1 then None
    else begin
      let page = Page.create ~size:(Bufpool.page_size db.Db.pool) in
      List.iter
        (fun (r : Wal.record) ->
          if r.lsn >= base_lsn then
            match r.kind with
            | Wal.Trim ->
                Page.overwrite page
                  (Page.to_bytes (Page.create ~size:(Page.size page)));
                Page.set_lsn page r.lsn
            | Wal.Ix_batch ->
                if Page.lsn page < r.lsn then begin
                  List.iter
                    (fun (d : Pbt.delta) ->
                      if d.d_block = block then Pbt.apply_delta page d)
                    (decode_deltas r.payload);
                  Page.set_lsn page r.lsn
                end
            | _ -> ignore (apply_to_page page r))
        mine;
      Some page
    end
  end

let install_repair db =
  Bufpool.set_repair db.Db.pool (fun ~rel ~block -> repair_page db ~rel ~block)

(* Paged-index factories: bind the tree to this context's pool, logger
   and bus. [make_index] logs the tree's creation; [restore_index]
   re-opens it from its (already redone) pages after a crash. *)
let make_index db ~rel =
  Pbt.create db.Db.pool ~rel ~log:(log_index db ~rel) ~bus:db.Db.bus ()

let restore_index db ~rel =
  Pbt.restore db.Db.pool ~rel ~log:(log_index db ~rel) ~bus:db.Db.bus ()
