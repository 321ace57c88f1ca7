module Device = Flashsim.Device
module Faultdev = Flashsim.Faultdev
module Blocktrace = Flashsim.Blocktrace
module Simclock = Sias_util.Simclock
module Crc32 = Sias_util.Crc32
module Bus = Sias_obs.Bus
module Crashpoint = Sias_chaos.Crashpoint

type kind =
  | Insert
  | Update
  | Delete
  | Trim
  | Commit
  | Abort
  | Checkpoint
  | Full_page
  | Ix_batch
      (* one logical index structural change (insert, split, delete,
         merge) as an atomic batch of per-page deltas; the record CRC
         makes multi-page changes all-or-nothing at replay *)

let kind_to_string = function
  | Insert -> "insert"
  | Update -> "update"
  | Delete -> "delete"
  | Trim -> "trim"
  | Commit -> "commit"
  | Abort -> "abort"
  | Checkpoint -> "checkpoint"
  | Full_page -> "full_page"
  | Ix_batch -> "ix_batch"

let kind_tag = function
  | Insert -> 0
  | Update -> 1
  | Delete -> 2
  | Trim -> 3
  | Commit -> 4
  | Abort -> 5
  | Checkpoint -> 6
  | Full_page -> 7
  | Ix_batch -> 8

type record = {
  lsn : int;
  xid : int;
  rel : int;
  kind : kind;
  payload : bytes;
  crc : int;
}

exception Corrupt_wal of int

exception Out_of_space of { needed : int; capacity : int; retained : int }
exception Hold_too_late of { name : string; truncated_below : int }
exception Lsn_gap of { expected : int; got : int }

let () =
  Printexc.register_printer (function
    | Corrupt_wal lsn ->
        Some
          (Printf.sprintf
             "Wal.Corrupt_wal: invalid record at lsn %d followed by valid \
              ones — corruption inside the log body, replay must not skip it"
             lsn)
    | Out_of_space { needed; capacity; retained } ->
        Some
          (Printf.sprintf
             "Wal.Out_of_space: appending %d bytes would exceed the WAL \
              capacity of %d bytes (%d retained); checkpoint and truncate, \
              or enter read-only degraded mode"
             needed capacity retained)
    | Hold_too_late { name; truncated_below } ->
        Some
          (Printf.sprintf
             "Wal.Hold_too_late: cannot register hold %S — the log is \
              already truncated below lsn %d; attach followers before the \
              first checkpoint recycling"
             name truncated_below)
    | Lsn_gap { expected; got } ->
        Some
          (Printf.sprintf
             "Wal.Lsn_gap: install received lsn %d but the next expected \
              lsn is %d — shipped records must arrive densely in order"
             got expected)
    | _ -> None)

let record_header_bytes = 24 (* lsn + xid + rel + kind + length + crc, on disk *)

let record_crc ~lsn ~xid ~rel ~kind ~payload =
  let hdr = Bytes.create 20 in
  Bytes.set_int64_le hdr 0 (Int64.of_int lsn);
  Bytes.set_int32_le hdr 8 (Int32.of_int xid);
  Bytes.set_int32_le hdr 12 (Int32.of_int rel);
  Bytes.set_int32_le hdr 16 (Int32.of_int (kind_tag kind));
  let c = Crc32.update Crc32.init hdr ~pos:0 ~len:20 in
  let c = Crc32.update c payload ~pos:0 ~len:(Bytes.length payload) in
  Crc32.finish c

let verify r =
  r.crc = record_crc ~lsn:r.lsn ~xid:r.xid ~rel:r.rel ~kind:r.kind ~payload:r.payload

let record_bytes r = record_header_bytes + Bytes.length r.payload

type t = {
  device : Device.t option;
  faults : Faultdev.t option;
  bus : Bus.t option;
  clock : Simclock.t;
  mutable records : record list; (* newest first, retained for recovery *)
  (* Unflushed records, newest first — the explicit pending batch. Flush
     slices come off this list directly instead of being re-derived by
     filtering [records] against the flushed LSN on every flush. *)
  mutable batch : record list;
  mutable next_lsn : int;
  mutable flushed_lsn : int;
  mutable truncated_below : int;
  mutable pending_bytes : int;
  mutable write_sector : int;
  mutable bytes_written : int;
  mutable flush_count : int;
  (* First LSN of the earliest un-fsynced flush that would tear if the
     machine died now (the record at this LSN persists only partially;
     later ones not at all). Earliest wins: a hole in the log invalidates
     everything after it, even bytes from later flushes that landed
     whole. Cleared by any sync flush: fsync makes all previously written
     bytes durable. *)
  mutable tear : int option;
  (* Retention holds: followers pin the tail of the log so checkpoint
     recycling cannot discard records they have not acknowledged yet.
     Registration order, small (one per standby). *)
  mutable holds : hold list;
  (* Finite log-file capacity: bytes of retained records may not exceed
     it. [None] = unbounded (the default; capacity machinery stays cold
     so default-seed runs are untouched). *)
  capacity_bytes : int option;
  mutable retained_bytes : int;
}

and hold = {
  h_name : string;
  mutable h_lsn : int;  (** lowest LSN this holder still needs *)
  mutable h_released : bool;
}

let create ?device ?faults ?bus ?capacity_bytes ~clock () =
  {
    device;
    faults;
    bus;
    clock;
    records = [];
    batch = [];
    next_lsn = 1;
    flushed_lsn = 0;
    truncated_below = 1;
    pending_bytes = 0;
    write_sector = 0;
    bytes_written = 0;
    flush_count = 0;
    tear = None;
    holds = [];
    capacity_bytes;
    retained_bytes = 0;
  }

let obs t =
  match t.bus with Some b when Bus.active b -> Some b | _ -> None

let fits t ~payload_bytes =
  match t.capacity_bytes with
  | Some cap -> t.retained_bytes + record_header_bytes + payload_bytes <= cap
  | None -> true

let append t ~xid ~rel ~kind ~payload =
  Crashpoint.reach "wal.append.pre";
  let bytes = record_header_bytes + Bytes.length payload in
  (* Checkpoint records are exempt: they model the reserved emergency
     region every real log keeps so that the record which frees space can
     always be written, even when the log is nominally full. *)
  (match t.capacity_bytes with
  | Some cap when kind <> Checkpoint && not (fits t ~payload_bytes:(Bytes.length payload)) ->
      raise
        (Out_of_space { needed = bytes; capacity = cap; retained = t.retained_bytes })
  | _ -> ());
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  let crc = record_crc ~lsn ~xid ~rel ~kind ~payload in
  let r = { lsn; xid; rel; kind; payload; crc } in
  t.records <- r :: t.records;
  t.batch <- r :: t.batch;
  t.retained_bytes <- t.retained_bytes + bytes;
  t.pending_bytes <- t.pending_bytes + bytes;
  (match obs t with
  | Some b ->
      Bus.publish b
        (Bus.Wal_append
           {
             kind = kind_to_string kind;
             bytes = record_header_bytes + Bytes.length payload;
           })
  | None -> ());
  lsn

(* Of a flushed slice (oldest first), find the LSN of the first record
   that does not fit entirely within [persisted] bytes. The slice comes
   straight off the pending batch, so this costs O(|slice|) — not a scan
   of the whole retained log. *)
let tear_point ~slice ~persisted =
  let rec scan remaining = function
    | [] -> None
    | r :: rest ->
        if record_bytes r <= remaining then
          scan (remaining - record_bytes r) rest
        else Some r.lsn
  in
  scan persisted slice

(* Flush the pending batch up to and including [lsn], submitted to the
   device at time [at]; returns the completion time ([at] with no
   device). [advance] stalls the global clock to the completion — the
   legacy commit path; group commit instead charges the shared
   completion to each member without stopping the world. *)
let flush_slice t ~sync ~advance ~at ~lsn =
  (* [batch] is newest-first with strictly decreasing LSNs, so the
     records to flush are a suffix of the list *)
  let rec split keep = function
    | r :: rest when r.lsn > lsn -> split (r :: keep) rest
    | slice -> (List.rev keep, slice)
  in
  let keep, slice_newest = split [] t.batch in
  match slice_newest with
  | [] -> at
  | top :: _ ->
      Crashpoint.reach "wal.flush.pre";
      let slice = List.rev slice_newest in
      let bytes = List.fold_left (fun a r -> a + record_bytes r) 0 slice in
      let sector0 = t.write_sector in
      let completion =
        match t.device with
        | None -> at
        | Some device ->
            let c =
              Device.submit device ~now:at Blocktrace.Write ~sector:sector0
                ~bytes
            in
            t.write_sector <- sector0 + ((bytes + 511) / 512);
            if advance && sync then Simclock.advance_to t.clock c;
            c
      in
      if sync then Crashpoint.reach "wal.fsync.pre";
      (match obs t with
      | Some b ->
          Bus.publish b (Bus.Wal_flush { sync; bytes });
          if sync then
            Bus.publish b
              (Bus.Span
                 { cat = "wal"; name = "wal_fsync"; tid = 101; t0 = at; t1 = completion })
      | None -> ());
      if sync then t.tear <- None
      else begin
        match t.faults with
        | None -> ()
        | Some f -> (
            (* probe with the sector this batch was written at, not the
               post-advance sector after it *)
            match Faultdev.torn_write f ~sector:sector0 ~bytes with
            | None -> ()
            | Some persisted ->
                (match obs t with
                | Some b ->
                    Bus.publish b
                      (Bus.Fault_hit { kind = "torn_wal"; sector = sector0 })
                | None -> ());
                if t.tear = None then t.tear <- tear_point ~slice ~persisted)
      end;
      t.batch <- keep;
      t.bytes_written <- t.bytes_written + bytes;
      t.pending_bytes <- t.pending_bytes - bytes;
      if top.lsn > t.flushed_lsn then t.flushed_lsn <- top.lsn;
      t.flush_count <- t.flush_count + 1;
      Crashpoint.reach (if sync then "wal.fsync.post" else "wal.flush.post");
      completion

let flush t ~sync =
  if t.pending_bytes > 0 then
    ignore
      (flush_slice t ~sync ~advance:true ~at:(Simclock.now t.clock)
         ~lsn:(t.next_lsn - 1))

let flush_upto t ~sync ~at ~lsn = flush_slice t ~sync ~advance:false ~at ~lsn

let pending_bytes t = t.pending_bytes
let pending_records t = List.rev t.batch

let current_lsn t = t.next_lsn - 1
let flushed_lsn t = t.flushed_lsn
let next_lsn t = t.next_lsn
let oldest_retained t = t.truncated_below

let records_from t ~lsn =
  List.filter (fun r -> r.lsn >= lsn) (List.rev t.records)

let verified_from t ~lsn =
  let rec scan valid bad = function
    | [] -> (
        List.rev valid,
        match bad with None -> `Clean | Some b -> `Torn b)
    | r :: rest -> (
        match (verify r, bad) with
        | true, None -> scan (r :: valid) None rest
        | true, Some b ->
            (* A valid record beyond an invalid one: not a torn tail but
               corruption inside the log body — nothing after the damage
               can be trusted, so fail loudly. *)
            raise (Corrupt_wal b)
        | false, None -> scan valid (Some r.lsn) rest
        | false, Some b -> scan valid (Some b) rest)
  in
  scan [] None (records_from t ~lsn)

let live_holds t =
  t.holds <- List.filter (fun h -> not h.h_released) t.holds;
  t.holds

let register_hold t ~name =
  if t.truncated_below > 1 then
    raise (Hold_too_late { name; truncated_below = t.truncated_below });
  let h = { h_name = name; h_lsn = t.truncated_below; h_released = false } in
  t.holds <- t.holds @ [ h ];
  h

let advance_hold _t h ~lsn = if lsn > h.h_lsn then h.h_lsn <- lsn
let release_hold _t h = h.h_released <- true
let hold_lsn h = h.h_lsn
let holds t = List.map (fun h -> (h.h_name, h.h_lsn)) (live_holds t)

let min_hold t =
  match live_holds t with
  | [] -> None
  | hs -> Some (List.fold_left (fun acc h -> Stdlib.min acc h.h_lsn) max_int hs)

let install t r =
  Crashpoint.reach "wal.install.pre";
  if not (verify r) then raise (Corrupt_wal r.lsn);
  if r.lsn <> t.next_lsn then
    raise (Lsn_gap { expected = t.next_lsn; got = r.lsn });
  (match t.capacity_bytes with
  | Some cap when t.retained_bytes + record_bytes r > cap ->
      raise
        (Out_of_space
           { needed = record_bytes r; capacity = cap; retained = t.retained_bytes })
  | _ -> ());
  t.next_lsn <- r.lsn + 1;
  t.records <- r :: t.records;
  t.batch <- r :: t.batch;
  t.retained_bytes <- t.retained_bytes + record_bytes r;
  t.pending_bytes <- t.pending_bytes + record_bytes r;
  match obs t with
  | Some b ->
      Bus.publish b
        (Bus.Wal_append { kind = kind_to_string r.kind; bytes = record_bytes r })
  | None -> ()

let truncate_before t ~lsn =
  Crashpoint.reach "wal.truncate.pre";
  (* never recycle past a registered retention hold *)
  let lsn =
    match min_hold t with None -> lsn | Some held -> Stdlib.min lsn held
  in
  let dropped =
    List.fold_left
      (fun a r -> if r.lsn < lsn then a + record_bytes r else a)
      0 t.records
  in
  t.retained_bytes <- t.retained_bytes - dropped;
  t.records <- List.filter (fun r -> r.lsn >= lsn) t.records;
  (match List.filter (fun r -> r.lsn < lsn) t.batch with
  | [] -> ()
  | dropped ->
      (* truncating into the unflushed batch forgets those writes *)
      t.batch <- List.filter (fun r -> r.lsn >= lsn) t.batch;
      t.pending_bytes <-
        t.pending_bytes - List.fold_left (fun a r -> a + record_bytes r) 0 dropped);
  if lsn > t.truncated_below then t.truncated_below <- lsn

let crash t =
  (* Records never handed to the device are gone outright; a torn async
     flush additionally loses its tail, and the boundary record survives
     only partially — model that as a failing checksum so the recovery
     scan sees a torn tail, not a clean end. *)
  t.records <- List.filter (fun r -> r.lsn <= t.flushed_lsn) t.records;
  (match t.tear with
  | None -> ()
  | Some cut ->
      t.records <-
        List.filter_map
          (fun r ->
            if r.lsn > cut then None
            else if r.lsn = cut then Some { r with crc = r.crc lxor 0xBAD }
            else Some r)
          t.records);
  t.batch <- [];
  t.pending_bytes <- 0;
  t.tear <- None;
  t.retained_bytes <- List.fold_left (fun a r -> a + record_bytes r) 0 t.records

let corrupt t ~lsn =
  t.records <-
    List.map
      (fun r -> if r.lsn = lsn then { r with crc = r.crc lxor 0xBAD } else r)
      t.records

let bytes_written t = t.bytes_written
let flush_count t = t.flush_count
let capacity_bytes t = t.capacity_bytes
let retained_bytes t = t.retained_bytes
