(* SIAS-V: a data item's recent versions co-located in one heap item, a
   version vector, with older versions spilled into a chain of overflow
   vectors. *)

open Sias_core
module Tid = Sias_storage.Tid
module Heapfile = Sias_storage.Heapfile
module Txn = Sias_txn.Txn

let vector_capacity = 4

(* ---------------- vector codec ----------------

   [0..7]   vid (int64)
   [8..9]   count (u16)
   [10..17] overflow tid + 1 (int64, 0 = none)
   then [count] version records, newest first:
     create int64, seq u32, flags u8, row_len u32, row bytes

   Flags byte: bit 0 = tombstone; bits 1-2 = creator hint
   ({!Tuple.Hint}), patched lazily on first visibility resolution and
   preserved across re-appends so later readers skip the CLOG. *)

let hint_shift = 1

type version = {
  v_create : int;
  v_seq : int;
  v_tombstone : bool;
  v_hint : int; (* {!Tuple.Hint} value for [v_create]; none = unknown *)
  v_flags_off : int; (* flags-byte offset within the decoded item; -1 if fresh *)
  v_row : Value.t array;
}

type vector = {
  vec_vid : int;
  overflow : Tid.t;
  versions : version array; (* newest first; length = occupancy *)
}

(* First version satisfying [p], scanning newest-first. Replaces the old
   [List.find_opt] without the list allocation. *)
let find_version p versions =
  let n = Array.length versions in
  let rec go i =
    if i >= n then None
    else
      let v = Array.unsafe_get versions i in
      if p v then Some v else go (i + 1)
  in
  go 0

let encode_vector vec =
  let buf = Buffer.create 256 in
  Buffer.add_int64_le buf (Int64.of_int vec.vec_vid);
  Buffer.add_uint16_le buf (Array.length vec.versions);
  Buffer.add_int64_le buf
    (Int64.of_int (if Tid.is_invalid vec.overflow then 0 else Tid.to_int vec.overflow + 1));
  Array.iter
    (fun v ->
      Buffer.add_int64_le buf (Int64.of_int v.v_create);
      Buffer.add_int32_le buf (Int32.of_int v.v_seq);
      Buffer.add_uint8 buf
        ((if v.v_tombstone then 1 else 0) lor (v.v_hint lsl hint_shift));
      let row = Value.encode_row v.v_row in
      Buffer.add_int32_le buf (Int32.of_int (Bytes.length row));
      Buffer.add_bytes buf row)
    vec.versions;
  Buffer.to_bytes buf

let vector_vid b = Int64.to_int (Bytes.get_int64_le b 0)

let vector_overflow b =
  let ov = Int64.to_int (Bytes.get_int64_le b 10) in
  if ov = 0 then Tid.invalid else Tid.of_int (ov - 1)

let decode_vector b =
  let vec_vid = vector_vid b in
  let count = Bytes.get_uint16_le b 8 in
  let overflow = vector_overflow b in
  let pos = ref 18 in
  (* explicit loop: decoding must advance [pos] strictly in record order *)
  let decode_one () =
    let v_create = Int64.to_int (Bytes.get_int64_le b !pos) in
    let v_seq = Int32.to_int (Bytes.get_int32_le b (!pos + 8)) in
    let v_flags_off = !pos + 12 in
    let flags = Bytes.get_uint8 b v_flags_off in
    let len = Int32.to_int (Bytes.get_int32_le b (!pos + 13)) in
    let v_row = Value.decode_row b ~pos:(!pos + 17) in
    pos := !pos + 17 + len;
    {
      v_create;
      v_seq;
      v_tombstone = flags land 1 = 1;
      v_hint = (flags lsr hint_shift) land 3;
      v_flags_off;
      v_row;
    }
  in
  let versions =
    if count = 0 then [||]
    else begin
      let arr = Array.make count (decode_one ()) in
      for i = 1 to count - 1 do
        arr.(i) <- decode_one ()
      done;
      arr
    end
  in
  { vec_vid; overflow; versions }

(* The overflow pointer sits at a fixed offset, so GC can repoint it in
   place without changing the item length. *)
let patch_overflow item tid =
  Bytes.set_int64_le item 10
    (Int64.of_int (if Tid.is_invalid tid then 0 else Tid.to_int tid + 1))


module V = struct
  let name = "SIAS-V"

  type nonrec version = version

  let create v = v.v_create
  let seq v = v.v_seq
  let tombstone v = v.v_tombstone
  let row v = v.v_row
  let item_vid = vector_vid
  let link = vector_overflow
  let patch_link = patch_overflow

  (* Every vector fetch on the transaction path costs one simulated CPU
     unit, wherever it happens. *)
  let fetch_vector t table tid =
    Db.charge_cpu t.db 1;
    match Heapfile.read table.heap tid with
    | None -> None
    | Some item -> Some (decode_vector item)

  let append_vector t table ~xid vec = append_item t table ~xid (encode_vector vec)

  (* First version visible to the snapshot, scanning newest-first through
     the vector and its overflow chain. *)
  let visible t txn table ~vid:_ entry =
    let rec scan tid =
      if Tid.is_invalid tid then None
      else
        match fetch_vector t table tid with
        | None -> None
        | Some vec ->
            t.visited <- t.visited + 1;
            let n = Array.length vec.versions in
            let rec find i =
              if i >= n then scan vec.overflow
              else
                let v = Array.unsafe_get vec.versions i in
                if
                  Visibility.creator_visible_fast t.db ~heap:table.heap ~tid
                    ~off:v.v_flags_off ~shift:hint_shift txn.Txn.snapshot ~hint:v.v_hint
                    ~xid:v.v_create
                then if v.v_tombstone then None else Some v
                else begin
                  (* a skipped vector entry names an overlapping writer
                     of this data item in the co-located lineage — under
                     serializable mode that is an rw antidependency,
                     no lock-table probe needed *)
                  if t.track then
                    Db.note_lineage_writer t.db ~reader:txn.Txn.xid ~writer:v.v_create;
                  find (i + 1)
                end
            in
            find 0
    in
    scan entry

  let head t table ~vid:_ entry =
    let mgr = t.db.Db.txnmgr in
    let rec scan tid =
      if Tid.is_invalid tid then None
      else
        match fetch_vector t table tid with
        | None -> None
        | Some vec -> (
            match
              find_version (fun v -> Txn.status mgr v.v_create <> Txn.Aborted) vec.versions
            with
            | Some v -> Some v
            | None -> scan vec.overflow)
    in
    scan entry

  let head_row _t _table v = Some v.v_row

  let fresh_version ~xid ~seq ~tombstone row =
    {
      v_create = xid;
      v_seq = seq;
      v_tombstone = tombstone;
      v_hint = Tuple.Hint.none;
      v_flags_off = -1;
      v_row = row;
    }

  let append_new t table ~xid ~seq ~vid row =
    append_vector t table ~xid
      {
        vec_vid = vid;
        overflow = Tid.invalid;
        versions = [| fresh_version ~xid ~seq ~tombstone:false row |];
      }

  (* Re-append the current vector with the new version prepended; a full
     vector spills whole into an overflow vector and a fresh one starts. *)
  let append_successor t table ~xid ~seq ~vid ~prev ~tombstone row =
    match fetch_vector t table prev with
    | None -> None
    | Some cur ->
        let v = fresh_version ~xid ~seq ~tombstone row in
        let fresh =
          if Array.length cur.versions >= vector_capacity then begin
            let spilled = append_vector t table ~xid cur in
            { vec_vid = vid; overflow = spilled; versions = [| v |] }
          end
          else { cur with versions = Array.append [| v |] cur.versions }
        in
        Some (append_vector t table ~xid fresh)

  (* GC reads go through the vacuum ring: no stats pollution, no
     working-set eviction, I/O still charged. *)
  let fetch_vector_ro table tid =
    match Heapfile.read_ro table.heap tid with
    | None -> None
    | Some item -> Some (decode_vector item)

  (* Compaction: rewrite items whose vectors hold versions no snapshot can
     need. A version is dead when a younger committed version is below
     the horizon, or its creator aborted; a committed tombstone below the
     horizon kills the whole item. The superseded copies become
     unreachable garbage for the sweep. *)
  let compact t table =
    let mgr = t.db.Db.txnmgr in
    let horizon = Txn.horizon mgr in
    for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
      match if locked t table vid then None else Vidmap.get table.vidmap ~vid with
      | None -> ()
      | Some entry ->
          (* gather all versions across the overflow chain *)
          let rec gather tid acc =
            if Tid.is_invalid tid then List.rev acc
            else
              match fetch_vector_ro table tid with
              | None -> List.rev acc
              | Some vec -> gather vec.overflow (List.rev_append (Array.to_list vec.versions) acc)
          in
          let versions = gather entry [] in
          let rec live acc succ_committed = function
            | [] -> List.rev acc
            | v :: rest ->
                let dead =
                  Visibility.sias_dead_for_all mgr ~horizon ~create:v.v_create
                    ~successor_create:succ_committed
                  || (v.v_tombstone && v.v_create < horizon
                     && Txn.status mgr v.v_create = Txn.Committed)
                in
                if dead then List.rev acc (* everything older is dead too *)
                else begin
                  let succ_committed =
                    if Txn.status mgr v.v_create = Txn.Committed then Some v.v_create
                    else succ_committed
                  in
                  live (v :: acc) succ_committed rest
                end
          in
          let live_versions = live [] None versions in
          if List.length live_versions < List.length versions then begin
            t.compacted <- t.compacted + 1;
            if live_versions = [] then begin
              match versions with v :: _ -> retire table ~vid v.v_row | [] -> ()
            end
            else begin
              let fresh =
                { vec_vid = vid; overflow = Tid.invalid; versions = Array.of_list live_versions }
              in
              let tid = append_vector t table ~xid:0 fresh in
              Vidmap.set table.vidmap ~vid tid
            end
          end
    done

  (* A vector copy is live iff it is reachable from its item's VID_map
     entry through the overflow chain, or from an active writer's undo
     record (the copy an abort restores the VID_map to). *)
  let mark t table =
    compact t table;
    let live = Hashtbl.create 1024 in
    let mark_chain entry =
      let rec walk tid =
        if (not (Tid.is_invalid tid)) && not (Hashtbl.mem live (Tid.to_int tid)) then
          match Heapfile.read_ro table.heap tid with
          | None -> ()
          | Some item ->
              Hashtbl.replace live (Tid.to_int tid) (vector_vid item);
              walk (vector_overflow item)
      in
      walk entry
    in
    for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
      match Vidmap.get table.vidmap ~vid with Some entry -> mark_chain entry | None -> ()
    done;
    Hashtbl.iter
      (fun _xid cell ->
        List.iter
          (fun u ->
            if u.u_table == table then
              match u.u_old with Some tid -> mark_chain tid | None -> ())
          !cell)
      t.undo;
    live

  let iter_versions _t table ~vid:_ entry f =
    let rec walk tid =
      if not (Tid.is_invalid tid) then
        match Heapfile.read_ro table.heap tid with
        | None -> ()
        | Some item ->
            let vec = decode_vector item in
            Array.iter (f vec.vec_vid) vec.versions;
            walk vec.overflow
    in
    walk entry

  (* The authoritative copy of an item is the one holding its newest
     committed version; among copies that agree, the fuller one, then the
     later-appended one. *)
  type rank = (int * int) * int * int

  let recovery_rank t tid item =
    let mgr = t.db.Db.txnmgr in
    let vec = decode_vector item in
    let best = ref None in
    Array.iter
      (fun v ->
        if Txn.status mgr v.v_create = Txn.Committed then
          match !best with
          | Some (c, s) when c > v.v_create || (c = v.v_create && s >= v.v_seq) -> ()
          | _ -> best := Some (v.v_create, v.v_seq))
      vec.versions;
    Option.map (fun newest -> (newest, Array.length vec.versions, Tid.to_int tid)) !best

  let recovered_row t item =
    let mgr = t.db.Db.txnmgr in
    match
      find_version (fun v -> Txn.status mgr v.v_create = Txn.Committed) (decode_vector item).versions
    with
    | Some v when not v.v_tombstone -> Some v.v_row
    | _ -> None

  let total_versions t table =
    let total = ref 0 in
    for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
      match Vidmap.get table.vidmap ~vid with
      | None -> ()
      | Some entry ->
          let rec count tid =
            if not (Tid.is_invalid tid) then
              match fetch_vector t table tid with
              | None -> ()
              | Some vec ->
                  total := !total + Array.length vec.versions;
                  count vec.overflow
          in
          count entry
    done;
    !total
end

include Make (V)
