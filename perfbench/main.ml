(* The repository benchmark: one TPC-C workload per invocation, built
   from the public APIs (device, database context, a registered engine,
   the TPC-C driver).

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--metric M]...

   --trace 0 repeats untraced runs for S wall seconds (at least three),
   cycling through three inputs derived from the seed, and reports the
   end-to-end metrics: wall metrics as medians over all runs, simulated
   metrics (and the live heap) as means over the three inputs. A repeated input must
   reproduce its first run's simulated fingerprint exactly.
   --trace 1 makes an untraced run, a traced run and a second untraced
   run, and reports the per-layer metrics of the traced run; the traced
   run attaches the SI checker and must reproduce the untraced
   fingerprint exactly, which proves the probes are transparent.

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   Any correctness failure still prints it (with "correct": false) and
   exits 1; bad arguments exit 2 with the valid names. *)

module W = Tpcc.Tpcc_workload
module S = Tpcc.Tpcc_schema
module Col = Tpcc.Tpcc_schema.Col
module Device = Flashsim.Device
module Blocktrace = Flashsim.Blocktrace
module Bufpool = Sias_storage.Bufpool
module Bgwriter = Sias_storage.Bgwriter
module Commitpipe = Sias_wal.Commitpipe
module Wal = Sias_wal.Wal
module Bus = Sias_obs.Bus
module Db = Mvcc.Db
module Value = Mvcc.Value
module Sample = Sias_util.Stats.Sample
module Monotime = Sias_util.Monotime
module WL = Workloads

(* ---------------- metric declarations ---------------- *)

let end_to_end =
  [
    ("txn_per_wall_s", "1/s");
    ("setup_s", "s");
    ("live_heap_mb", "MB");
    ("notpm", "1/min");
    ("resp_p50_ms", "sim_ms");
    ("resp_p99_ms", "sim_ms");
    ("device_write_kb_per_txn", "KB/txn");
    ("flash_write_kb_per_txn", "KB/txn");
    ("space_mb", "MB");
    ("ok_txn_ratio", "ratio");
  ]

(* Engine operations the TPC-C driver issues. [scan] is wrapped too but
   the driver never calls it, so it has no metric. *)
let mvcc_ops =
  [
    "begin_txn"; "read"; "lookup"; "range_pk"; "insert"; "update"; "delete";
    "commit"; "abort";
  ]

let kinds = List.map W.tx_kind_to_string W.all_kinds

let per_layer =
  List.concat_map
    (fun k ->
      [
        ("tpcc." ^ k ^ ".wall_us_p50", "us");
        ("tpcc." ^ k ^ ".wall_us_p99", "us");
        ("tpcc." ^ k ^ ".resp_p99_ms", "sim_ms");
      ])
    kinds
  @ [ ("tpcc.driver_self_s", "s") ]
  @ List.concat_map
      (fun op ->
        [
          ("mvcc." ^ op ^ ".calls_per_txn", "count/txn");
          ("mvcc." ^ op ^ ".self_us", "us");
        ])
      mvcc_ops
  @ [
      ("mvcc.self_share", "ratio");
      ("mvcc.gc.wall_ms", "ms");
      ("mvcc.hint_hits_per_txn", "count/txn");
      ("mvcc.versions_per_live_row", "ratio");
      ("txn.conflict_aborts_per_ktxn", "count/ktxn");
      ("txn.retries_per_ktxn", "count/ktxn");
      ("index.splits_per_ktxn", "count/ktxn");
      ("index.page_deltas_per_txn", "count/txn");
      ("index.flush_kb_per_txn", "KB/txn");
      ("bufpool.hit_ratio", "ratio");
      ("bufpool.misses_per_txn", "count/txn");
      ("bufpool.evictions_per_txn", "count/txn");
      ("bufpool.flushes_per_txn", "count/txn");
      ("bufpool.read_stall_ms_per_txn", "sim_ms/txn");
      ("bufpool.write_stall_ms_per_txn", "sim_ms/txn");
      ("bgwriter.passes", "count");
      ("checkpoint.pages", "count");
      ("wal.appends_per_txn", "count/txn");
      ("wal.append_bytes_per_txn", "B/txn");
      ("wal.flushes_per_txn", "count/txn");
      ("commitpipe.commit_fsyncs_per_txn", "count/txn");
      ("flashsim.submit.calls_per_txn", "count/txn");
      ("flashsim.submit.self_us", "us");
      ("flashsim.read_kb_per_txn", "KB/txn");
      ("flashsim.write_amplification", "ratio");
      ("flashsim.nand_writes_per_ktxn", "count/ktxn");
      ("flashsim.erases_per_ktxn", "count/ktxn");
      ("runtime.minor_mb_per_txn", "MB/txn");
      ("runtime.major_gcs_per_ktxn", "count/ktxn");
      ("runtime.top_heap_mb", "MB");
      ("trace.overhead_ratio", "ratio");
    ]

(* ---------------- one run ---------------- *)

(* Everything simulated a run produces, compared exactly between runs:
   the paper's numbers plus the substrate counters behind them. *)
type fingerprint = (string * float) list

type rep = {
  setup_s : float;
  run_wall_s : float;
  result : W.result;
  sim : fingerprint;
  e2e_sim : (string * float) list;  (** simulated end-to-end metrics *)
  layer : (string * float) list;  (** per-layer metrics, traced runs only *)
  minor_words : float;
  major_gcs : int;
  live_heap_mb : float;  (** live OCaml heap after a full major GC, at run end *)
  problems : string list;
}

let sum_by f l = List.fold_left (fun acc x -> acc + f x) 0 l
let fsum l = List.fold_left ( +. ) 0.0 l
let per n x = if n = 0 then 0.0 else x /. float_of_int n
let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0
let info_get info k = Option.value ~default:0.0 (List.assoc_opt k info)

(* nearest-rank percentile of a sorted array *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    sorted.(Stdlib.max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let commit_ok = function Ok () -> () | Error e -> failwith (Mvcc.Engine.error_to_string e)

module Run (X : Mvcc.Engine.S) = struct
  module WX = W.Make (X)

  let table_list (t : WX.tables) =
    WX.
      [
        t.warehouse; t.district; t.customer; t.history; t.new_order; t.orders;
        t.order_line; t.item; t.stock;
      ]

  (* TPC-C consistency conditions C1-C4 (spec clause 3.3), read back
     through the engine after the run: an oracle on the transactions'
     effects that shares nothing with the engine's bookkeeping. *)
  let consistency eng (tb : WX.tables) =
    let geti (r : Value.t array) i = Value.int r.(i) in
    let getf (r : Value.t array) i = Value.float r.(i) in
    let bad = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
    let txn = X.begin_txn eng in
    let districts = ref [] in
    ignore (X.scan eng txn tb.WX.district (fun r -> districts := r :: !districts));
    ignore
      (X.scan eng txn tb.WX.warehouse (fun w ->
           let wid = geti w Col.w_id in
           let dsum =
             fsum
               (List.filter_map
                  (fun d -> if geti d 1 = wid then Some (getf d Col.d_ytd) else None)
                  !districts)
           in
           if Float.abs (getf w Col.w_ytd -. dsum) >= 0.01 then
             fail "C1: warehouse %d ytd %.2f <> district sum %.2f" wid
               (getf w Col.w_ytd) dsum));
    let bump h k v = Hashtbl.replace h k (v + Option.value ~default:0 (Hashtbl.find_opt h k)) in
    let keep h k v better =
      match Hashtbl.find_opt h k with
      | Some m when not (better v m) -> ()
      | _ -> Hashtbl.replace h k v
    in
    let max_o = Hashtbl.create 64 and ol_sum = Hashtbl.create 64 in
    ignore
      (X.scan eng txn tb.WX.orders (fun o ->
           let dk = S.district_key ~w:(geti o 1) ~d:(geti o 2) in
           keep max_o dk (geti o Col.o_id) ( > );
           bump ol_sum dk (geti o Col.o_ol_cnt)));
    let no_min = Hashtbl.create 64 and no_max = Hashtbl.create 64 in
    let no_cnt = Hashtbl.create 64 in
    ignore
      (X.scan eng txn tb.WX.new_order (fun n ->
           let dk = S.district_key ~w:(geti n 1) ~d:(geti n 2) in
           let o = geti n 3 in
           bump no_cnt dk 1;
           keep no_min dk o ( < );
           keep no_max dk o ( > )));
    let ol_cnt = Hashtbl.create 64 in
    ignore
      (X.scan eng txn tb.WX.order_line (fun l ->
           bump ol_cnt (geti l 1 / 100_000_000) 1));
    List.iter
      (fun d ->
        let w = geti d 1 and dd = geti d 2 in
        let dk = S.district_key ~w ~d:dd in
        let next_o = geti d Col.d_next_o_id in
        (match Hashtbl.find_opt max_o dk with
        | Some m when m <> next_o - 1 ->
            fail "C2: district (%d,%d) next_o_id %d, max o_id %d" w dd next_o m
        | _ -> ());
        (match (Hashtbl.find_opt no_min dk, Hashtbl.find_opt no_max dk) with
        | Some lo, Some hi ->
            let c = Option.value ~default:0 (Hashtbl.find_opt no_cnt dk) in
            if c <> hi - lo + 1 then
              fail "C3: district (%d,%d) has %d new orders in [%d,%d]" w dd c lo hi
        | _ -> ());
        let want = Option.value ~default:0 (Hashtbl.find_opt ol_sum dk) in
        let got = Option.value ~default:0 (Hashtbl.find_opt ol_cnt dk) in
        if want <> got then
          fail "C4: district (%d,%d) order lines %d, o_ol_cnt sum %d" w dd got want)
      !districts;
    commit_ok (X.commit eng txn);
    if !districts = [] then fail "no districts";
    List.rev !bad

  type tally = {
    mutable hint_hits : int;
    mutable wal_appends : int;
    mutable wal_bytes : int;
    mutable ix_deltas : int;
    mutable ix_flushes : int;
    mutable ckpt_pages : int;
  }

  (* [probe] is [Some] on the traced run: [X] is then the probe's engine
     wrapper and [device] the probe's device front. *)
  let run (w : WL.t) ~seed ~probe ~(device : Device.t) =
    Gc.compact ();
    let t_setup = Monotime.now () in
    let bus = Bus.create () in
    let db =
      Db.create ~bus ~device ~buffer_pages:w.buffer_pages
        ~flush_policy:
          (match w.flush with
          | WL.T1 -> Bgwriter.T1_bgwriter { interval = 0.2; max_pages = 100 }
          | WL.T2 -> Bgwriter.T2_checkpoint_only)
        ~checkpoint_interval:w.checkpoint_interval_s
        ?append_seal_interval:(match w.flush with WL.T1 -> Some 0.2 | WL.T2 -> None)
        ~os_cache_interval:30.0 ~os_cache_pages:(w.buffer_pages / 4)
        ~commit_mode:Commitpipe.Sync ~index:w.index ()
    in
    let cfg =
      {
        (W.default_config ~warehouses:w.warehouses) with
        W.scale = S.scaled ~div:w.scale_div ();
        duration_s = w.duration_s;
        terminals_per_warehouse = w.terminals_per_warehouse;
        think_time_s = w.think_time_s;
        seed;
        gc_interval_s = w.gc_interval_s;
        mix = w.mix;
      }
    in
    (* the checker sees the load too: it needs the loaded rows' history *)
    let checker = Option.map (fun _ -> Mvcc.Sichecker.attach bus) probe in
    let eng = X.create db in
    let tables = WX.create_tables eng in
    WX.load eng tables cfg;
    (* settle: persist the loaded state once, as a started server would,
       then measure only the run *)
    Commitpipe.finalize db.Db.commitpipe;
    Bufpool.flush_all db.Db.pool ~sync:false;
    Bufpool.flush_os_cache db.Db.pool;
    let setup_s = Monotime.elapsed_since t_setup in
    (* table_stats and index_summary read pages, so they run before the
       counters of the measured run are reset *)
    let heap_mb stats =
      float_of_int (sum_by (fun s -> s.Mvcc.Engine.heap_blocks) stats * 8192) /. 1048576.0
    in
    let table_stats () = List.map (X.table_stats eng) (table_list tables) in
    let load_heap_mb = heap_mb (table_stats ()) in
    let ix_summaries () = List.concat_map snd (X.index_summary eng) in
    let splits0 = sum_by (fun s -> s.Mvcc.Index.s_splits) (ix_summaries ()) in
    let ix_rels = List.map (fun s -> s.Mvcc.Index.s_rel) (ix_summaries ()) in
    let trace = Device.trace device in
    Blocktrace.reset trace;
    Commitpipe.reset_stats db.Db.commitpipe;
    let bs0 = Bufpool.stats db.Db.pool in
    let info0 = Device.info device in
    let wal_flushes0 = Wal.flush_count db.Db.wal in
    let bg0 = Bgwriter.bgwriter_rounds db.Db.bgwriter in
    let tally =
      {
        hint_hits = 0; wal_appends = 0; wal_bytes = 0; ix_deltas = 0;
        ix_flushes = 0; ckpt_pages = 0;
      }
    in
    let chain_wall = Hashtbl.create 8 in
    (match probe with
    | None -> ()
    | Some p ->
        Bus.subscribe bus (function
          | Bus.Span { cat = "txn"; name; _ } ->
              let d = Probe.close_chain p (Probe.intern p ("tpcc." ^ name)) in
              let s =
                match Hashtbl.find_opt chain_wall name with
                | Some s -> s
                | None ->
                    let s = Sample.create () in
                    Hashtbl.add chain_wall name s;
                    s
              in
              Sample.add s d
          | Bus.Hint_hit _ -> tally.hint_hits <- tally.hint_hits + 1
          | Bus.Wal_append { bytes; _ } ->
              tally.wal_appends <- tally.wal_appends + 1;
              tally.wal_bytes <- tally.wal_bytes + bytes
          | Bus.Index_page_io { deltas; _ } ->
              tally.ix_deltas <- tally.ix_deltas + deltas
          | Bus.Page_flush { rel; _ } ->
              if List.mem rel ix_rels then tally.ix_flushes <- tally.ix_flushes + 1
          | Bus.Checkpoint { pages } ->
              tally.ckpt_pages <- tally.ckpt_pages + pages
          | _ -> ());
        Probe.start p);
    let gc0 = Gc.quick_stat () in
    let t_run = Monotime.now () in
    let result = WX.run eng tables cfg in
    let run_wall_s = Monotime.elapsed_since t_run in
    let gc1 = Gc.quick_stat () in
    Option.iter Probe.stop probe;
    Gc.full_major ();
    let live_heap_mb = mb_of_words (Gc.stat ()).Gc.live_words in
    Bufpool.flush_os_cache db.Db.pool;
    (* -------- simulated results -------- *)
    let per_kind = result.W.per_kind in
    let committed = result.W.total_committed in
    let user = sum_by (fun (_, k) -> k.W.user_aborts) per_kind in
    let conflicts = sum_by (fun (_, k) -> k.W.conflicts) per_kind in
    let failures = sum_by (fun (_, k) -> k.W.failures) per_kind in
    let shed = sum_by (fun (_, k) -> k.W.shed) per_kind in
    let retries = sum_by (fun (_, k) -> k.W.retries) per_kind in
    let attempted = committed + user + conflicts + failures + shed in
    let resp_all =
      let a = Array.concat (List.map (fun (_, k) -> Sample.to_array k.W.resp) per_kind) in
      Array.sort Float.compare a;
      a
    in
    let bs = Bufpool.stats db.Db.pool in
    let info = Device.info device in
    let delta k = info_get info k -. info_get info0 k in
    let kb x = float_of_int x /. 1024.0 in
    let write_bytes = Blocktrace.write_bytes trace in
    let read_bytes = Blocktrace.read_bytes trace in
    let writes = Blocktrace.write_count trace and reads = Blocktrace.read_count trace in
    (* after the run's counters are taken: table_stats reads every page *)
    let stats = table_stats () in
    let live = sum_by (fun s -> s.Mvcc.Engine.live_versions) stats in
    let total_v = sum_by (fun s -> s.Mvcc.Engine.total_versions) stats in
    let cp = Commitpipe.stats db.Db.commitpipe in
    let e2e_sim =
      [
        ("notpm", result.W.notpm);
        ("resp_p50_ms", 1000.0 *. pct resp_all 50.0);
        ("resp_p99_ms", 1000.0 *. pct resp_all 99.0);
        ("device_write_kb_per_txn", per committed (kb write_bytes));
        ("flash_write_kb_per_txn", per committed (4.0 *. delta "nand_writes"));
        ("space_mb", heap_mb stats);
        ("ok_txn_ratio", per attempted (float_of_int (committed + user)));
      ]
    in
    let sim =
      e2e_sim
      @ List.concat_map
          (fun (k, ks) ->
            let n = W.tx_kind_to_string k in
            [
              (n ^ ".committed", float_of_int ks.W.committed);
              (n ^ ".resp_sum", fsum (Array.to_list (Sample.to_array ks.W.resp)));
            ])
          per_kind
      @ [
          ("attempted", float_of_int attempted);
          ("elapsed_s", result.W.elapsed_s);
          ("dev.write_bytes", float_of_int write_bytes);
          ("dev.read_bytes", float_of_int read_bytes);
          ("dev.writes", float_of_int writes);
          ("dev.reads", float_of_int reads);
          ("dev.erases", delta "erases");
          ("buf.hits", float_of_int (bs.Bufpool.hits - bs0.Bufpool.hits));
          ("buf.misses", float_of_int (bs.Bufpool.misses - bs0.Bufpool.misses));
          ("buf.evictions", float_of_int (bs.Bufpool.evictions - bs0.Bufpool.evictions));
          ("buf.flushes", float_of_int (bs.Bufpool.flushes - bs0.Bufpool.flushes));
          ("buf.read_stall_s", bs.Bufpool.read_stall_s -. bs0.Bufpool.read_stall_s);
          ("buf.write_stall_s", bs.Bufpool.write_stall_s -. bs0.Bufpool.write_stall_s);
          ("wal.flushes", float_of_int (Wal.flush_count db.Db.wal - wal_flushes0));
          ("wal.bytes", float_of_int (Wal.bytes_written db.Db.wal));
          ("commit_fsyncs", float_of_int cp.Commitpipe.commit_fsyncs);
          ("versions.live", float_of_int live);
          ("versions.total", float_of_int total_v);
        ]
    in
    let problems = ref [] in
    let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    if committed < 1000 then problem "only %d commits: too few for a p99" committed;
    if conflicts + failures + shed > 0 then
      problem "%d transactions failed (%d conflicts, %d failures, %d shed)"
        (conflicts + failures + shed) conflicts failures shed;
    if Float.abs (load_heap_mb -. w.heap_mb) > 0.25 *. w.heap_mb then
      problem "heap after load is %.2f MB, stated %.1f MB" load_heap_mb w.heap_mb;
    let evictions = bs.Bufpool.evictions - bs0.Bufpool.evictions in
    if w.fits_in_buffer && evictions > 0 then
      problem "workload should fit the buffer but evicted %d pages" evictions;
    if (not w.fits_in_buffer) && (evictions = 0 || delta "erases" = 0.0) then
      problem "beyond-RAM workload did not evict (%d) and erase (%.0f)" evictions
        (delta "erases");
    (* -------- per-layer metrics (traced run) -------- *)
    let layer =
      match (probe, checker) with
      | Some p, Some checker ->
          if Mvcc.Sichecker.violation_count checker > 0 then
            problem "SI checker: %s" (Mvcc.Sichecker.report checker);
          let agg = Probe.aggregate p in
          let mvcc_self =
            fsum (List.map (fun op -> (agg ("mvcc." ^ op)).Probe.self_s) ("gc" :: "scan" :: mvcc_ops))
          in
          let submit = agg "flashsim.submit" in
          let gc_agg = agg "mvcc.gc" in
          let driver_self = run_wall_s -. Probe.top_level_s p in
          let chain k =
            match Hashtbl.find_opt chain_wall k with
            | Some s -> Sample.to_array s
            | None -> [||]
          in
          let kind_metrics =
            List.concat_map
              (fun (k, ks) ->
                let n = W.tx_kind_to_string k in
                let c = chain n in
                [
                  ("tpcc." ^ n ^ ".wall_us_p50", 1e6 *. pct c 50.0);
                  ("tpcc." ^ n ^ ".wall_us_p99", 1e6 *. pct c 99.0);
                  ("tpcc." ^ n ^ ".resp_p99_ms", 1000.0 *. pct (Sample.to_array ks.W.resp) 99.0);
                ])
              per_kind
          in
          let op_metrics =
            List.concat_map
              (fun op ->
                let a = agg ("mvcc." ^ op) in
                [
                  ("mvcc." ^ op ^ ".calls_per_txn", per committed (float_of_int a.Probe.calls));
                  ("mvcc." ^ op ^ ".self_us", 1e6 *. per a.Probe.calls a.Probe.self_s);
                ])
              mvcc_ops
          in
          (* one more engine GC pass after the measured run prices the
             backlog the run left, so the metric exists with GC off too *)
          let t_gc = Monotime.now () in
          X.gc eng;
          let final_gc_s = Monotime.elapsed_since t_gc in
          let kt = per committed 1000.0 in
          let host_w = delta "host_writes" and nand_w = delta "nand_writes" in
          kind_metrics
          @ [ ("tpcc.driver_self_s", driver_self) ]
          @ op_metrics
          @ [
              ("mvcc.self_share", mvcc_self /. run_wall_s);
              ("mvcc.gc.wall_ms", 1000.0 *. per (gc_agg.Probe.calls + 1) (gc_agg.Probe.wall_s +. final_gc_s));
              ("mvcc.hint_hits_per_txn", per committed (float_of_int tally.hint_hits));
              ("mvcc.versions_per_live_row", per live (float_of_int total_v));
              ("txn.conflict_aborts_per_ktxn", kt *. float_of_int conflicts);
              ("txn.retries_per_ktxn", kt *. float_of_int retries);
              ("index.splits_per_ktxn",
                kt *. float_of_int (sum_by (fun s -> s.Mvcc.Index.s_splits) (ix_summaries ()) - splits0));
              ("index.page_deltas_per_txn", per committed (float_of_int tally.ix_deltas));
              ("index.flush_kb_per_txn", per committed (8.0 *. float_of_int tally.ix_flushes));
              ("bufpool.hit_ratio",
                (let h = bs.Bufpool.hits - bs0.Bufpool.hits in
                 per (h + bs.Bufpool.misses - bs0.Bufpool.misses) (float_of_int h)));
              ("bufpool.misses_per_txn", per committed (float_of_int (bs.Bufpool.misses - bs0.Bufpool.misses)));
              ("bufpool.evictions_per_txn", per committed (float_of_int evictions));
              ("bufpool.flushes_per_txn", per committed (float_of_int (bs.Bufpool.flushes - bs0.Bufpool.flushes)));
              ("bufpool.read_stall_ms_per_txn",
                per committed (1000.0 *. (bs.Bufpool.read_stall_s -. bs0.Bufpool.read_stall_s)));
              ("bufpool.write_stall_ms_per_txn",
                per committed (1000.0 *. (bs.Bufpool.write_stall_s -. bs0.Bufpool.write_stall_s)));
              ("bgwriter.passes", float_of_int (Bgwriter.bgwriter_rounds db.Db.bgwriter - bg0));
              ("checkpoint.pages", float_of_int tally.ckpt_pages);
              ("wal.appends_per_txn", per committed (float_of_int tally.wal_appends));
              ("wal.append_bytes_per_txn", per committed (float_of_int tally.wal_bytes));
              ("wal.flushes_per_txn", per committed (float_of_int (Wal.flush_count db.Db.wal - wal_flushes0)));
              ("commitpipe.commit_fsyncs_per_txn", per committed (float_of_int cp.Commitpipe.commit_fsyncs));
              ("flashsim.submit.calls_per_txn", per committed (float_of_int submit.Probe.calls));
              ("flashsim.submit.self_us", 1e6 *. per submit.Probe.calls submit.Probe.self_s);
              ("flashsim.read_kb_per_txn", per committed (kb read_bytes));
              ("flashsim.write_amplification", if host_w > 0.0 then nand_w /. host_w else 1.0);
              ("flashsim.nand_writes_per_ktxn", kt *. nand_w);
              ("flashsim.erases_per_ktxn", kt *. delta "erases");
            ]
      | _ -> []
    in
    List.iter (fun s -> problem "%s" s) (consistency eng tables);
    {
      setup_s;
      run_wall_s;
      result;
      sim;
      e2e_sim;
      layer;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
      live_heap_mb;
      problems = List.rev !problems;
    }
end

(* Simulated metrics vary with the generated data; trace-0 runs report
   their mean over this many inputs derived from one seed. *)
let sub_seeds = 3
let sub_seed seed k = if k = 0 then seed else Hashtbl.hash (seed, k)

(* the run reads only the trace's counters, not its per-request records *)
let without_records (d : Device.t) =
  Blocktrace.set_keep_records (Device.trace d) false;
  d

let data_ssd (w : WL.t) =
  without_records (Device.ssd_x25e ~name:"data-ssd" ~blocks:w.device_blocks ())

let run_untraced (w : WL.t) ~seed =
  let (module E : Mvcc.Engine.S) = snd (Mvcc.Engine.resolve_exn w.engine) in
  let module R = Run (E) in
  R.run w ~seed ~probe:None ~device:(data_ssd w)

let run_traced (w : WL.t) ~seed =
  let (module E : Mvcc.Engine.S) = snd (Mvcc.Engine.resolve_exn w.engine) in
  let p = Probe.create () in
  let module TE = Probe.Engine (E) (struct let probe = p end) in
  let module R = Run (TE) in
  let device = without_records (Probe.device p (data_ssd w)) in
  let rep = R.run w ~seed ~probe:(Some p) ~device in
  (rep, p)

(* ---------------- command line ---------------- *)

let usage () =
  Printf.sprintf
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--metric NAME]...\n\
     workloads: %s"
    (String.concat ", " WL.names)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

type args = {
  workload : WL.t;
  seed : int;
  seconds : float;
  trace : bool;
  only : string list;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and only = ref [] in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s wants an integer, got %S\n%s" flag v (usage ())
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match WL.find v with
        | Some w -> workload := Some w
        | None ->
            die "unknown workload %S; valid workloads: %s" v (String.concat ", " WL.names));
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_arg "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        let n = int_arg "--seconds" v in
        if n < 1 || n > 3600 then die "--seconds must be in 1..3600, got %d" n;
        seconds := Some (float_of_int n);
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := Some false
        | "1" -> trace := Some true
        | _ -> die "--trace wants 0 or 1, got %S" v);
        go rest
    | "--metric" :: v :: rest ->
        only := v :: !only;
        go rest
    | arg :: _ -> die "unexpected argument %S\n%s" arg (usage ())
  in
  go (List.tl (Array.to_list Sys.argv));
  let need name = function
    | Some v -> v
    | None -> die "missing %s\n%s" name (usage ())
  in
  let trace = need "--trace" !trace in
  let declared = fst (List.split (if trace then per_layer else end_to_end)) in
  List.iter
    (fun m ->
      if not (List.mem m declared) then
        die "unknown %s metric %S; valid names: %s"
          (if trace then "per-layer" else "end-to-end")
          m (String.concat ", " declared))
    !only;
  {
    workload = need "--workload" !workload;
    seed = need "--seed" !seed;
    seconds = need "--seconds" !seconds;
    trace;
    only = List.rev !only;
  }

(* ---------------- reporting ---------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit ~correct ~attempted ~failed ~only decls values =
  let shown =
    List.filter (fun (n, _) -> only = [] || List.mem n only) decls
  in
  List.iter
    (fun (n, unit) ->
      Printf.printf "  %-36s %16.6f %s\n" n (List.assoc n values) unit)
    shown;
  let body =
    String.concat ","
      (List.map
         (fun (n, unit) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n
             (json_number (List.assoc n values))
             unit)
         shown)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body

let mismatches (a : fingerprint) (b : fingerprint) =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k b with
      | Some v' when v' = v -> None
      | Some v' -> Some (Printf.sprintf "%s: %.17g vs %.17g" k v v')
      | None -> Some (k ^ ": missing"))
    a

let failed_of (r : rep) =
  sum_by (fun (_, k) -> k.W.conflicts + k.W.failures + k.W.shed) r.result.W.per_kind

let attempted_of (r : rep) = int_of_float (List.assoc "attempted" r.sim)

let () =
  let a = parse_args () in
  let w = a.workload in
  let seed = a.seed in
  prerr_endline (WL.describe w);
  let problems = ref [] in
  let note_rep label (r : rep) =
    List.iter (fun p -> problems := (label ^ ": " ^ p) :: !problems) r.problems
  in
  let check_same label (first : rep) (r : rep) =
    List.iter
      (fun m -> problems := (label ^ ": simulated result differs: " ^ m) :: !problems)
      (mismatches first.sim r.sim)
  in
  let t_start = Monotime.now () in
  let txn_rate (r : rep) = float_of_int r.result.W.total_committed /. r.run_wall_s in
  let run_logged i ~seed =
    let r = run_untraced w ~seed in
    note_rep (Printf.sprintf "run %d (seed %d)" i seed) r;
    Printf.eprintf "run %d (seed %d): setup %.3fs, run %.3fs, %d commits\n%!" i seed
      r.setup_s r.run_wall_s r.result.W.total_committed;
    r
  in
  let first = run_logged 1 ~seed in
  if not a.trace then begin
    (* runs cycle through [sub_seeds] inputs derived from the seed; each
       input's repeat must reproduce its first run exactly *)
    let firsts = Array.make sub_seeds first in
    let reps = ref [ first ] in
    let i = ref 1 in
    while !i < sub_seeds || Monotime.elapsed_since t_start < a.seconds do
      let k = !i mod sub_seeds in
      let r = run_logged (!i + 1) ~seed:(sub_seed seed k) in
      if !i < sub_seeds then firsts.(k) <- r
      else check_same (Printf.sprintf "run %d vs run %d" (!i + 1) (k + 1)) firsts.(k) r;
      reps := r :: !reps;
      incr i
    done;
    let reps = List.rev !reps in
    (* simulated metrics are exact for an input, so the mean over the
       inputs uses all of them; wall metrics take medians against noise *)
    let input_mean f =
      fsum (Array.to_list (Array.map f firsts)) /. float_of_int sub_seeds
    in
    let values =
      [
        ("txn_per_wall_s", median (List.map txn_rate reps));
        ("setup_s", median (List.map (fun r -> r.setup_s) reps));
        ("live_heap_mb", input_mean (fun r -> r.live_heap_mb));
      ]
      @ List.map (fun (n, _) -> (n, input_mean (fun r -> List.assoc n r.e2e_sim))) first.e2e_sim
    in
    let problems = List.rev !problems in
    List.iter (fun p -> prerr_endline ("FAIL " ^ p)) problems;
    Printf.printf "%s (seed %d, %d runs, trace 0)\n" w.name seed (List.length reps);
    emit ~correct:(problems = [])
      ~attempted:(sum_by attempted_of reps)
      ~failed:(sum_by failed_of reps)
      ~only:a.only end_to_end values;
    if problems <> [] then exit 1
  end
  else begin
    let traced, probe = run_traced w ~seed in
    note_rep "traced run" traced;
    check_same "traced vs untraced" first traced;
    Printf.eprintf "traced run: run %.3fs, %d spans\n%!" traced.run_wall_s
      (Probe.span_count probe);
    let second = run_logged 2 ~seed in
    check_same "run 2 vs run 1" first second;
    let out_dir = Filename.concat "perfbench" "_out" in
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat out_dir (w.name ^ ".trace.json") in
    Probe.write_chrome probe path;
    Printf.eprintf "trace: %s\n%!" path;
    let committed = first.result.W.total_committed in
    let untraced_wall = median [ first.run_wall_s; second.run_wall_s ] in
    let values =
      traced.layer
      @ [
          ("runtime.minor_mb_per_txn",
            per committed (mb_of_words (int_of_float first.minor_words)));
          ("runtime.major_gcs_per_ktxn", per committed (1000.0 *. float_of_int first.major_gcs));
          ("runtime.top_heap_mb", mb_of_words (Gc.quick_stat ()).Gc.top_heap_words);
          ("trace.overhead_ratio", traced.run_wall_s /. untraced_wall);
        ]
    in
    let problems = List.rev !problems in
    List.iter (fun p -> prerr_endline ("FAIL " ^ p)) problems;
    Printf.printf "%s (seed %d, trace 1)\n" w.name seed;
    let reps = [ first; traced; second ] in
    emit ~correct:(problems = [])
      ~attempted:(sum_by attempted_of reps)
      ~failed:(sum_by failed_of reps)
      ~only:a.only per_layer values;
    if problems <> [] then exit 1
  end
