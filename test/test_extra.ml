(* Additional integration and failure-injection tests: GC/recovery
   interaction, WAL checkpoint truncation, SIAS-V vector spilling, driver
   determinism, and the experiment harness across device kinds. *)

module Value = Mvcc.Value
module Db = Mvcc.Db
module Engine = Mvcc.Engine
module Bufpool = Sias_storage.Bufpool
module Heapfile = Sias_storage.Heapfile
module Wal = Sias_wal.Wal
module W = Tpcc.Tpcc_workload

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let row k v = [| Value.Int k; Value.Int v; Value.Str (String.make 40 'x') |]

let set_v v r =
  let r = Array.copy r in
  r.(1) <- Value.Int v;
  r

(* ---------- GC + crash recovery, for each SIAS engine ---------- *)

module Gc_recovery (E : Engine.S) = struct
  let test ~truncate () =
    let db = Db.create ~buffer_pages:512 () in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 () in
    let commit f =
      let txn = E.begin_txn eng in
      f txn;
      E.commit eng txn |> Result.get_ok
    in
    commit (fun txn ->
        for k = 1 to 200 do
          E.insert eng txn table (row k 0) |> Result.get_ok
        done);
    (* churn so early pages decay, then seal everything and GC *)
    for i = 1 to 4 do
      commit (fun txn ->
          for k = 1 to 200 do
            E.update eng txn table ~pk:k (set_v i) |> Result.get_ok
          done)
    done;
    Bufpool.flush_all db.Db.pool ~sync:false;
    E.gc eng;
    check "trim happened" true (Bufpool.trims db.Db.pool > 0);
    (* a checkpoint that truncates the log drops the Trim records: the
       discarded pages are then neither on the device nor in the log, and
       recovery must still find every block after them *)
    if truncate then check "log truncated" true (Db.reclaim_wal db);
    (* more committed work AFTER the GC, then crash *)
    commit (fun txn ->
        for k = 1 to 50 do
          E.update eng txn table ~pk:k (set_v 99) |> Result.get_ok
        done);
    Bufpool.drop_cache db.Db.pool;
    E.recover eng;
    let txn = E.begin_txn eng in
    let n =
      E.scan eng txn table (fun r ->
          let k = Value.int r.(0) and v = Value.int r.(1) in
          let expect = if k <= 50 then 99 else 4 in
          checki (Printf.sprintf "row %d value" k) expect v)
    in
    E.commit eng txn |> Result.get_ok;
    checki "all rows survive gc + crash" 200 n
end

module Gc_rec_chains = Gc_recovery (Mvcc.Sias_engine)
module Gc_rec_vectors = Gc_recovery (Mvcc.Sias_vector)

(* ---------- recovery from a WAL truncated at a checkpoint ---------- *)

let test_recovery_after_checkpoint_truncation () =
  let module E = Mvcc.Si_engine in
  let db = Db.create ~buffer_pages:512 () in
  let eng = E.create db in
  let table = E.create_table eng ~name:"t" ~pk_col:0 () in
  let txn = E.begin_txn eng in
  for k = 1 to 40 do
    E.insert eng txn table (row k k) |> Result.get_ok
  done;
  E.commit eng txn |> Result.get_ok;
  (* checkpoint: everything on disk; WAL before this point is recyclable
     except commit records (our clog replay needs them, like pg_xact) *)
  Bufpool.flush_all db.Db.pool ~sync:false;
  let checkpoint_lsn = Wal.current_lsn db.Db.wal in
  let txn = E.begin_txn eng in
  for k = 41 to 60 do
    E.insert eng txn table (row k k) |> Result.get_ok
  done;
  E.commit eng txn |> Result.get_ok;
  (* drop heap records below the checkpoint, keep commit/abort records *)
  let keep =
    List.filter
      (fun (r : Wal.record) ->
        r.lsn > checkpoint_lsn || r.kind = Wal.Commit || r.kind = Wal.Abort)
      (Wal.records_from db.Db.wal ~lsn:0)
  in
  Wal.truncate_before db.Db.wal ~lsn:(checkpoint_lsn + 1);
  List.iter
    (fun (r : Wal.record) ->
      if r.lsn <= checkpoint_lsn && (r.kind = Wal.Commit || r.kind = Wal.Abort) then ())
    keep;
  Bufpool.drop_cache db.Db.pool;
  E.recover eng;
  let txn = E.begin_txn eng in
  let n = E.scan eng txn table (fun _ -> ()) in
  E.commit eng txn |> Result.get_ok;
  checki "pre-checkpoint rows from disk + post-checkpoint from WAL" 60 n

(* ---------- SIAS-V vector spilling ---------- *)

let test_vector_spill_overflow () =
  let module E = Mvcc.Sias_vector in
  let db = Db.create () in
  let eng = E.create db in
  let table = E.create_table eng ~name:"t" ~pk_col:0 () in
  let commit f =
    let txn = E.begin_txn eng in
    f txn;
    E.commit eng txn |> Result.get_ok
  in
  commit (fun txn -> E.insert eng txn table (row 1 0) |> Result.get_ok);
  (* hold a snapshot so nothing is collectible, then overflow the vector *)
  let old_reader = E.begin_txn eng in
  let n_updates = (3 * E.vector_capacity) + 1 in
  for i = 1 to n_updates do
    commit (fun txn -> E.update eng txn table ~pk:1 (set_v i) |> Result.get_ok)
  done;
  (* the old snapshot still reads its epoch's version across the spill *)
  (match E.read eng old_reader table ~pk:1 with
  | Some r -> checki "old snapshot reads initial version" 0 (Value.int r.(1))
  | None -> Alcotest.fail "old version lost in spill");
  E.commit eng old_reader |> Result.get_ok;
  let stats = E.table_stats eng table in
  checki "all versions reachable across overflow chain" (n_updates + 1)
    stats.Engine.total_versions;
  (* new snapshots read the newest *)
  commit (fun txn ->
      match E.read eng txn table ~pk:1 with
      | Some r -> checki "newest" n_updates (Value.int r.(1))
      | None -> Alcotest.fail "row lost")

let test_vector_read_cost_beats_chain () =
  (* after k updates, resolving an OLD snapshot needs ~k fetches on chains
     but only ~k/capacity on vectors: the co-location payoff *)
  let updates = 12 in
  let chain_visits =
    let module E = Mvcc.Sias_engine in
    let db = Db.create () in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 () in
    let txn = E.begin_txn eng in
    E.insert eng txn table (row 1 0) |> Result.get_ok;
    E.commit eng txn |> Result.get_ok;
    let old_reader = E.begin_txn eng in
    for i = 1 to updates do
      let txn = E.begin_txn eng in
      E.update eng txn table ~pk:1 (set_v i) |> Result.get_ok;
      E.commit eng txn |> Result.get_ok
    done;
    let _, v0 = E.walk_stats eng in
    ignore (E.read eng old_reader table ~pk:1);
    let _, v1 = E.walk_stats eng in
    E.commit eng old_reader |> Result.get_ok;
    v1 - v0
  in
  check
    (Printf.sprintf "chain walks %d versions for a deep old read" chain_visits)
    true
    (chain_visits >= updates);
  let module E = Mvcc.Sias_vector in
  let db = Db.create () in
  let eng = E.create db in
  let table = E.create_table eng ~name:"t" ~pk_col:0 () in
  let txn = E.begin_txn eng in
  E.insert eng txn table (row 1 0) |> Result.get_ok;
  E.commit eng txn |> Result.get_ok;
  let old_reader = E.begin_txn eng in
  for i = 1 to updates do
    let txn = E.begin_txn eng in
    E.update eng txn table ~pk:1 (set_v i) |> Result.get_ok;
    E.commit eng txn |> Result.get_ok
  done;
  let _, v0 = E.walk_stats eng in
  ignore (E.read eng old_reader table ~pk:1);
  let _, v1 = E.walk_stats eng in
  E.commit eng old_reader |> Result.get_ok;
  check
    (Printf.sprintf "a deep old read fetches %d vectors" (v1 - v0))
    true
    (v1 - v0 <= 1 + (updates / E.vector_capacity))

(* ---------- TPC-C driver determinism ---------- *)

let test_driver_deterministic () =
  let run () =
    let module WE = W.Make (Mvcc.Sias_engine) in
    let db = Db.create ~buffer_pages:1024 () in
    let eng = Mvcc.Sias_engine.create db in
    let tables = WE.create_tables eng in
    let cfg =
      {
        (W.default_config ~warehouses:2) with
        W.scale = Tpcc.Tpcc_schema.scaled ~div:300 ();
        duration_s = 10.0;
      }
    in
    WE.load eng tables cfg;
    let r = WE.run eng tables cfg in
    ( r.W.total_committed,
      r.W.total_aborted,
      Flashsim.Blocktrace.write_bytes (Flashsim.Device.trace db.Db.device) )
  in
  let a = run () and b = run () in
  check "identical runs from identical seeds" true (a = b)

(* ---------- experiment harness across devices ---------- *)

let test_harness_devices () =
  let open Harness.Experiments in
  List.iter
    (fun device ->
      let o =
        run_tpcc
          {
            (default_setup ~engine:"sias" ~warehouses:2) with
            device;
            duration_s = 5.0;
            scale_div = 300;
            buffer_pages = 256;
          }
      in
      check "committed work" true (o.result.W.total_committed > 0);
      check "loaded something" true (o.load_write_mb > 0.0))
    [ Ssd_single; Hdd_single; Ssd_raid 2; Ssd_raid 6 ]

let test_harness_flush_policies_differ () =
  let open Harness.Experiments in
  let run flush =
    run_tpcc
      {
        (default_setup ~engine:"sias" ~warehouses:5) with
        flush;
        duration_s = 30.0;
        scale_div = 300;
        buffer_pages = 2048;
      }
  in
  let t1 = run T1 and t2 = run T2 in
  check
    (Printf.sprintf "t1 writes more than t2 (%.2f vs %.2f MB)" t1.run_write_mb t2.run_write_mb)
    true
    (t1.run_write_mb > t2.run_write_mb);
  check "t1 fill is sparser" true (t1.avg_fill <= t2.avg_fill +. 1e-9)

(* ---------- SSD wear accounting ---------- *)

let test_ssd_wear_grows () =
  let ssd = Flashsim.Ssd.create (Flashsim.Ssd.x25e_config ~blocks:32 ()) in
  let logical_bytes = Flashsim.Ssd.capacity_bytes ssd in
  let total_pages = logical_bytes / 4096 in
  (* fill the device once, then hammer a hot region: with no free space
     left, GC must relocate live pages — write amplification appears *)
  for p = 0 to total_pages - 1 do
    ignore (Flashsim.Ssd.service_time ssd Flashsim.Blocktrace.Write ~sector:(p * 8) ~bytes:4096)
  done;
  for _ = 1 to 40 do
    for p = 0 to (total_pages / 8) - 1 do
      ignore
        (Flashsim.Ssd.service_time ssd Flashsim.Blocktrace.Write ~sector:(p * 8) ~bytes:4096)
    done
  done;
  let ftl = Flashsim.Ssd.ftl ssd in
  check "erases accumulated" true (Flashsim.Ftl.erases ftl > 0);
  check "wear counter advanced" true
    (Flashsim.Nand.max_erase_count (Flashsim.Ftl.nand ftl) > 0);
  check "write amplification beyond 1" true (Flashsim.Ftl.write_amplification ftl > 1.0)

let test_trim_reaches_ftl () =
  (* GC page discard must invalidate the flash pages underneath so the
     device GC never relocates dead data *)
  let module E = Mvcc.Sias_engine in
  let device = Flashsim.Device.ssd_x25e ~blocks:1024 () in
  let db = Db.create ~device ~buffer_pages:256 () in
  let eng = E.create db in
  let table = E.create_table eng ~name:"t" ~pk_col:0 () in
  let commit f =
    let txn = E.begin_txn eng in
    f txn;
    E.commit eng txn |> Result.get_ok
  in
  commit (fun txn ->
      for k = 1 to 300 do
        E.insert eng txn table (row k 0) |> Result.get_ok
      done);
  for i = 1 to 4 do
    commit (fun txn ->
        for k = 1 to 300 do
          E.update eng txn table ~pk:k (set_v i) |> Result.get_ok
        done)
  done;
  Bufpool.flush_all db.Db.pool ~sync:false;
  Bufpool.flush_os_cache db.Db.pool;
  E.gc eng;
  check "pages were trimmed" true (Bufpool.trims db.Db.pool > 0);
  (* writing a fresh stream must not force the FTL to relocate the
     trimmed (dead) data: WA stays low *)
  let info = Flashsim.Device.info device in
  let wa = List.assoc "write_amplification" info in
  check (Printf.sprintf "write amplification %.2f stays low" wa) true (wa < 1.5)

let suite =
  [
    Alcotest.test_case "trim reaches the FTL" `Quick test_trim_reaches_ftl;
    Alcotest.test_case "SIAS-Chains: gc + crash recovery" `Quick
      (Gc_rec_chains.test ~truncate:false);
    Alcotest.test_case "SIAS-V: gc + crash recovery" `Quick
      (Gc_rec_vectors.test ~truncate:false);
    Alcotest.test_case "SIAS-Chains: gc + log truncation + crash recovery" `Quick
      (Gc_rec_chains.test ~truncate:true);
    Alcotest.test_case "SIAS-V: gc + log truncation + crash recovery" `Quick
      (Gc_rec_vectors.test ~truncate:true);
    Alcotest.test_case "recovery after checkpoint truncation" `Quick
      test_recovery_after_checkpoint_truncation;
    Alcotest.test_case "SIAS-V vector spill + overflow chain" `Quick test_vector_spill_overflow;
    Alcotest.test_case "vector read cost vs chain walk" `Quick test_vector_read_cost_beats_chain;
    Alcotest.test_case "driver determinism" `Quick test_driver_deterministic;
    Alcotest.test_case "harness runs on every device kind" `Slow test_harness_devices;
    Alcotest.test_case "t1 writes more than t2" `Slow test_harness_flush_policies_differ;
    Alcotest.test_case "ssd wear accounting" `Quick test_ssd_wear_grows;
  ]
