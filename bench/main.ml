(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) plus ablation benches for the design choices
   called out in DESIGN.md.

     dune exec bench/main.exe                 -- all experiments, quick mode
     dune exec bench/main.exe -- table1       -- one experiment
     dune exec bench/main.exe -- --full all   -- paper-scale parameters

   Absolute numbers are not expected to match the paper (the substrate is
   a simulator, not the authors' testbed); the shapes are: who wins, by
   roughly what factor, where the crossovers fall. EXPERIMENTS.md records
   paper-vs-measured for each artifact. *)

open Harness.Experiments
module W = Tpcc.Tpcc_workload
module T = Sias_util.Tablefmt
module B = Flashsim.Blocktrace

let full = ref false

(* --bench-out: write every row the run recorded as JSON *)
let bench_out : string option ref = ref None

(* ------------------------------------------------------------------ *)
(* Results and gates                                                    *)

(* Every number a chapter reports is one row. [Sim] rows are simulated
   time and deterministic per seed (test/golden/bench_<chapter>.txt pins
   them); [Wall] rows are host wall clock and vary from run to run. *)
type kind = Sim | Wall

type row = {
  chapter : string;
  key : string;
  metric : string;
  unit : string;
  kind : kind;
  value : float;
}

(* the experiment now running: its rows and gates carry its name *)
let chapter = ref ""
let rows : row list ref = ref []
let gate_failures : (string * string) list ref = ref []

let record ?(kind = Sim) key fields =
  List.iter
    (fun (metric, unit, value) ->
      rows := { chapter = !chapter; key; metric; unit; kind; value } :: !rows)
    fields

(* A gate that does not hold fails the bench; every failure is printed
   once all chapters ran and the results file is written. *)
let gate ok msg = if not ok then gate_failures := (!chapter, msg) :: !gate_failures

let section title =
  Printf.printf "\n============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "============================================================\n%!"

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Table 1: write amount (MB) and reduction, SI vs SIAS-t1 vs SIAS-t2  *)

let table1 () =
  section "Table 1: Write Amount (MB) and Reduction (%) -- TPC-C 100 WH, SSD";
  let durations = if !full then [ 600.0; 900.0; 1800.0 ] else [ 60.0; 120.0 ] in
  let base =
    {
      (default_setup ~engine:"si" ~warehouses:100) with
      buffer_pages = 4096;
      gc_interval_s = Some 30.0;
      keep_trace_records = false;
    }
  in
  let tbl =
    T.create [ "Time(sec.)"; "SI"; "SIAS-t1"; "SIAS-t2"; "Red t1"; "Red t2" ]
  in
  let spaces = ref [] in
  List.iter
    (fun duration_s ->
      let cell engine flush =
        run_tpcc
          { base with engine; flush; duration_s; checkpoint_interval_s = duration_s /. 2.0 }
      in
      let si = cell "si" T1 in
      let t1 = cell "sias" T1 in
      let t2 = cell "sias" T2 in
      spaces := (duration_s, si, t1, t2) :: !spaces;
      List.iter
        (fun (label, o) ->
          record (Printf.sprintf "%s/%gs" label duration_s)
            [ ("write_mb", "MB", o.run_write_mb); ("space_mb", "MB", o.space_mb) ])
        [ ("si", si); ("sias-t1", t1); ("sias-t2", t2) ];
      (* the paper's headline: both SIAS thresholds write less than SI *)
      gate
        (t1.run_write_mb < si.run_write_mb && t2.run_write_mb < si.run_write_mb)
        (Printf.sprintf "%gs: SIAS-t1 %.1f MB and SIAS-t2 %.1f MB must write less than SI %.1f MB"
           duration_s t1.run_write_mb t2.run_write_mb si.run_write_mb);
      let red x = 1.0 -. (x.run_write_mb /. si.run_write_mb) in
      T.add_row tbl
        [
          T.fmt_float ~decimals:0 duration_s;
          T.fmt_float ~decimals:1 si.run_write_mb;
          T.fmt_float ~decimals:1 t1.run_write_mb;
          T.fmt_float ~decimals:1 t2.run_write_mb;
          T.fmt_pct (red t1);
          T.fmt_pct (red t2);
        ])
    durations;
  T.print tbl;
  (match !spaces with
  | (_, si, t1, t2) :: _ ->
      note "space consumption (longest run): SI %.1f MB | SIAS-t1 %.1f MB | SIAS-t2 %.1f MB"
        si.space_mb t1.space_mb t2.space_mb;
      note "SIAS-t2 page fill %.0f%% vs SIAS-t1 %.0f%% (t1 seals sparse pages early)"
        (100.0 *. t2.avg_fill) (100.0 *. t1.avg_fill);
      note "paper: 65%% reduction at t1, 97%% at t2; t2 space -12%% vs t1"
  | [] -> ())

(* ------------------------------------------------------------------ *)
(* Table 2: TPC-C on HDD -- throughput (NOTPM) and response time (sec) *)

let table2 () =
  section "Table 2: TPC-C on HDD -- NOTPM and response time (sec.)";
  let whs = if !full then [ 30; 40; 50; 60; 75; 100 ] else [ 30; 50; 75 ] in
  let run engine warehouses =
    run_tpcc
      {
        (default_setup ~engine ~warehouses) with
        device = Hdd_single;
        buffer_pages = 4096;
        duration_s = (if !full then 120.0 else 60.0);
        gc_interval_s = Some 30.0;
      }
  in
  let cells = List.map (fun wh -> (wh, run "sias" wh, run "si" wh)) whs in
  let tbl = T.create ("Warehouses" :: List.map string_of_int whs) in
  let row name get = T.add_row tbl (name :: List.map get cells) in
  row "SIAS (NOTPM)" (fun (_, sias, _) -> T.fmt_float ~decimals:0 sias.result.W.notpm);
  row "SI (NOTPM)" (fun (_, _, si) -> T.fmt_float ~decimals:0 si.result.W.notpm);
  row "SIAS (sec.)" (fun (_, sias, _) ->
      T.fmt_float ~decimals:3 (W.resp_mean sias.result W.New_order));
  row "SI (sec.)" (fun (_, _, si) ->
      T.fmt_float ~decimals:3 (W.resp_mean si.result W.New_order));
  T.print tbl;
  note "paper: SIAS throughput rises with WHs while SI decays; SI response";
  note "times explode (11.7 s at 30 WH to 123 s at 100 WH), SIAS stays responsive."

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4: blocktraces                                         *)

let figure_blocktrace engine figure_name paper_note =
  section
    (Printf.sprintf "%s: blocktrace -- %s -- SSD, 100 WH, %s" figure_name
       (engine_name engine)
       (if !full then "300 sec." else "60 sec."));
  let o =
    run_tpcc
      {
        (default_setup ~engine ~warehouses:100) with
        buffer_pages = 4096;
        duration_s = (if !full then 300.0 else 60.0);
        gc_interval_s = Some 30.0;
        keep_trace_records = true;
      }
  in
  print_endline (B.render_scatter o.trace);
  let reads = B.read_count o.trace and writes = B.write_count o.trace in
  note "reads %d (%.1f MB) | writes %d (%.1f MB) | %.0f%% of requests are reads" reads
    o.run_read_mb writes o.run_write_mb
    (100.0 *. float_of_int reads /. float_of_int (max 1 (reads + writes)));
  note "write sequentiality %.0f%% | read sequentiality %.0f%%"
    (100.0 *. B.sequentiality o.trace B.Write)
    (100.0 *. B.sequentiality o.trace B.Read);
  note "%s" paper_note

let figure3 () =
  figure_blocktrace "sias" "Figure 3"
    "paper: almost only read access; appends form per-relation swimlanes"

let figure4 () =
  figure_blocktrace "si" "Figure 4"
    "paper: read and write access mixed; writes scattered across the relations"

(* ------------------------------------------------------------------ *)
(* Figures 5 and 6: throughput/response vs warehouses on SSD RAIDs      *)

let sweep ~device ~buffer_pages ~whs ~duration_s =
  List.map
    (fun warehouses ->
      let run engine =
        run_tpcc
          {
            (default_setup ~engine ~warehouses) with
            device;
            buffer_pages;
            duration_s;
            scale_div = 300;
            gc_interval_s = Some 30.0;
          }
      in
      (warehouses, run "sias", run "si"))
    whs

let print_sweep cells =
  let tbl =
    T.create
      [ "WH"; "SIAS NOTPM"; "SI NOTPM"; "SIAS resp(s)"; "SI resp(s)"; "SIAS W MB"; "SI W MB" ]
  in
  List.iter
    (fun (wh, sias, si) ->
      T.add_row tbl
        [
          string_of_int wh;
          T.fmt_float ~decimals:0 sias.result.W.notpm;
          T.fmt_float ~decimals:0 si.result.W.notpm;
          T.fmt_float ~decimals:3 (W.resp_mean sias.result W.New_order);
          T.fmt_float ~decimals:3 (W.resp_mean si.result W.New_order);
          T.fmt_float ~decimals:1 sias.run_write_mb;
          T.fmt_float ~decimals:1 si.run_write_mb;
        ])
    cells;
  T.print tbl;
  let peak get =
    List.fold_left
      (fun (bw, bn) (wh, sias, si) ->
        let n = get (sias, si) in
        if n > bn then (wh, n) else (bw, bn))
      (0, 0.0) cells
  in
  let sias_wh, sias_n = peak (fun (sias, _) -> sias.result.W.notpm) in
  let si_wh, si_n = peak (fun (_, si) -> si.result.W.notpm) in
  note "peaks: SIAS %.0f NOTPM @ %d WH | SI %.0f NOTPM @ %d WH" sias_n sias_wh si_n si_wh

let figure5 () =
  section "Figure 5: TPC-C on a two-SSD RAID-0 -- throughput vs warehouses";
  let whs =
    if !full then [ 50; 100; 200; 300; 400; 450; 500; 530; 600 ] else [ 50; 150; 300; 450 ]
  in
  print_sweep
    (sweep ~device:(Ssd_raid 2) ~buffer_pages:3072 ~whs
       ~duration_s:(if !full then 120.0 else 60.0));
  note "paper: SIAS sustains higher throughput as WHs grow (+30%% at the top)"

let figure6 () =
  section "Figure 6: TPC-C on a six-SSD RAID-0 -- throughput and response time";
  let whs =
    if !full then [ 100; 200; 300; 400; 450; 500; 530; 600 ] else [ 100; 300; 450; 530 ]
  in
  print_sweep
    (sweep ~device:(Ssd_raid 6) ~buffer_pages:6144 ~whs
       ~duration_s:(if !full then 120.0 else 60.0));
  note "paper: SI peaks at 450 WH (4862 NOTPM, 4.8 s resp.); SIAS peaks at";
  note "530 WH (6182 NOTPM, 3.3 s resp.) -- about 30%% more throughput."

(* ------------------------------------------------------------------ *)
(* Ablations (not in the paper's tables; design choices of DESIGN.md)  *)

let ablation_scan () =
  section "Ablation: SIAS scan via VID_map vs traditional relation scan (Sec. 4.2.1)";
  let module E = Mvcc.Sias_engine in
  let db = Mvcc.Db.create ~buffer_pages:256 () in
  let eng = E.create db in
  let table = E.create_table eng ~name:"t" ~pk_col:0 () in
  let txn = E.begin_txn eng in
  for k = 1 to 5_000 do
    E.insert eng txn table [| Mvcc.Value.Int k; Mvcc.Value.Str (String.make 60 'x') |]
    |> Result.get_ok
  done;
  E.commit eng txn |> Result.get_ok;
  (* version bloat: update a third of the items a few times *)
  for _ = 1 to 3 do
    let txn = E.begin_txn eng in
    for k = 1 to 5_000 do
      if k mod 3 = 0 then E.update eng txn table ~pk:k (fun r -> r) |> Result.get_ok
    done;
    E.commit eng txn |> Result.get_ok
  done;
  Sias_storage.Bufpool.flush_all db.Mvcc.Db.pool ~sync:false;
  let clock = db.Mvcc.Db.clock in
  let time_scan scan =
    let t0 = Sias_util.Simclock.now clock in
    let txn = E.begin_txn eng in
    let n = scan eng txn table (fun _ -> ()) in
    E.commit eng txn |> Result.get_ok;
    (n, Sias_util.Simclock.now clock -. t0)
  in
  let n1, t_vid = time_scan E.scan in
  let n2, t_trad = time_scan E.scan_traditional in
  note "vidmap scan:      %d rows in %.4f simulated s" n1 t_vid;
  note "traditional scan: %d rows in %.4f simulated s (%.1fx slower)" n2 t_trad
    (t_trad /. Float.max 1e-9 t_vid);
  note "the traditional scan fetches every tuple version and re-resolves each"

let ablation_vectors () =
  section
    "Ablation: version placement -- SI (FSM) vs SI-CV ([18]) vs SIAS-Chains vs SIAS-V";
  let run engine =
    run_tpcc
      {
        (default_setup ~engine ~warehouses:20) with
        duration_s = 30.0;
        buffer_pages = 1024;
        gc_interval_s = Some 30.0;
      }
  in
  let tbl = T.create [ "variant"; "NOTPM"; "writes MB"; "reads MB"; "space MB" ] in
  List.iter
    (fun engine ->
      let o = run engine in
      T.add_row tbl
        [
          engine_name engine;
          T.fmt_float ~decimals:0 o.result.W.notpm;
          T.fmt_float o.run_write_mb;
          T.fmt_float o.run_read_mb;
          T.fmt_float o.space_mb;
        ])
    [ "si"; "si-cv"; "sias"; "sias-v" ];
  T.print tbl;
  note "SI-CV co-locates a transaction's new versions (fewer dirty pages than";
  note "FSM placement) but keeps in-place invalidation; SIAS removes it entirely.";
  note "SIAS-V trades vector re-append amplification for single-fetch reads."

let ablation_gc () =
  section "Ablation: SIAS garbage collection on/off -- space and version bloat";
  (* long, update-heavy run: enough version churn for page decay *)
  let run gc =
    run_tpcc
      {
        (default_setup ~engine:"sias" ~warehouses:10) with
        duration_s = (if !full then 300.0 else 120.0);
        buffer_pages = 1024;
        think_time_s = 0.2;
        gc_interval_s = gc;
      }
  in
  let without = run None in
  let with_gc = run (Some 10.0) in
  note "gc off:        space %.1f MB, page fill %.0f%%" without.space_mb
    (100.0 *. without.avg_fill);
  note "gc every 10 s: space %.1f MB, page fill %.0f%%" with_gc.space_mb
    (100.0 *. with_gc.avg_fill);
  note "paper (Sec. 6): GC re-inserts live versions of victim pages and discards";
  note "dead ones; reclamation is a TRIM, not a write."

let ablation_noftl () =
  section "Ablation: NoFTL -- append pattern on raw Flash (paper Discussion, [22])";
  let module N = Flashsim.Noftl in
  let module B = Flashsim.Blocktrace in
  let budget = 4096 in
  (* SIAS-like: strict appends + explicit region erases by the DBMS *)
  let append = N.create (N.default_config ~blocks:128 ()) in
  let t_append = ref 0.0 in
  let pages = 127 * 64 in
  for i = 0 to budget - 1 do
    let page = i mod pages in
    if page mod 64 = 0 && i >= pages then
      t_append := !t_append +. N.erase_region append ~sector:(page * 8);
    t_append := !t_append +. N.service_time append B.Write ~sector:(page * 8) ~bytes:4096
  done;
  (* SI-like: scattered in-place rewrites of a hot region *)
  let inplace = N.create (N.default_config ~blocks:128 ()) in
  let rng = Sias_util.Rng.create 11 in
  let t_inplace = ref 0.0 in
  for _ = 0 to budget - 1 do
    let page = Sias_util.Rng.int rng 512 in
    t_inplace := !t_inplace +. N.service_time inplace B.Write ~sector:(page * 8) ~bytes:4096
  done;
  let tbl = T.create [ "pattern"; "service time (s)"; "erases"; "block RMWs"; "max wear" ] in
  T.add_row tbl
    [ "append + DBMS erase"; T.fmt_float ~decimals:4 !t_append;
      string_of_int (N.erases append); string_of_int (N.rmws append); "-" ];
  T.add_row tbl
    [ "in-place rewrites"; T.fmt_float ~decimals:4 !t_inplace;
      string_of_int (N.erases inplace); string_of_int (N.rmws inplace); "-" ];
  T.print tbl;
  note "on FTL-less Flash the append discipline is ~%.0fx cheaper and wears the"
    (!t_inplace /. Float.max 1e-9 !t_append);
  note "device far less; GC-driven erases are deterministic, not device background work"

let ablation_vidmap () =
  section "Ablation: VID_map residency -- in-memory vs paged through the buffer pool";
  let run vidmap_paged =
    run_tpcc
      {
        (default_setup ~engine:"sias" ~warehouses:50) with
        duration_s = 30.0;
        buffer_pages = 1024;
        gc_interval_s = Some 30.0;
        vidmap_paged;
      }
  in
  let mem = run false in
  let paged = run true in
  note "in-memory VID_map: %.0f NOTPM, reads %.1f MB, writes %.1f MB" mem.result.W.notpm
    mem.run_read_mb mem.run_write_mb;
  note "paged VID_map:     %.0f NOTPM, reads %.1f MB, writes %.1f MB" paged.result.W.notpm
    paged.run_read_mb paged.run_write_mb;
  note "paper 4.1.3: on large databases the map spills to disk through the";
  note "ordinary buffer machinery; bucket pages then compete for frames."

let ablation_endurance () =
  section "Ablation: Flash endurance -- device-level wear under SI vs SIAS (Sec. 6)";
  let run engine =
    run_tpcc
      {
        (default_setup ~engine ~warehouses:50) with
        (* a small drive (256 MB physical) so the cumulative write volume
           turns the device over several times and its GC must work *)
        device = Ssd_sized 1024;
        duration_s = (if !full then 300.0 else 90.0);
        buffer_pages = 2048;
        gc_interval_s = Some 30.0;
      }
  in
  let tbl =
    T.create [ "engine"; "host writes"; "NAND writes"; "WA"; "erases"; "max block wear" ]
  in
  List.iter
    (fun engine ->
      let o = run engine in
      let get k = try List.assoc k o.device_info with Not_found -> 0.0 in
      T.add_row tbl
        [
          engine_name engine;
          T.fmt_float ~decimals:0 (get "host_writes");
          T.fmt_float ~decimals:0 (get "nand_writes");
          T.fmt_float ~decimals:2 (get "write_amplification");
          T.fmt_float ~decimals:0 (get "erases");
          T.fmt_float ~decimals:0 (get "max_block_wear");
        ])
    [ "si"; "sias" ];
  T.print tbl;
  note "SIAS's append pattern + TRIM of reclaimed pages leaves the FTL almost";
  note "nothing to relocate: fewer erases and lower peak wear per unit of work";
  note "(paper Sec. 6: the I/O pattern suggests increased Flash endurance)."

let ablation_contention () =
  section "Contention: conflict policies -- TPC-C 1 WH, 8 terminals, retries 5, SI checker on";
  let module C = Sias_txn.Contention in
  let tbl =
    T.create
      [ "engine"; "policy"; "NOTPM"; "conflicts"; "retries"; "give-ups"; "victims"; "SI check" ]
  in
  List.iter
    (fun engine ->
      List.iter
        (fun policy ->
          let o =
            run_tpcc
              {
                (default_setup ~engine ~warehouses:1) with
                duration_s = (if !full then 60.0 else 10.0);
                buffer_pages = 1024;
                scale_div = 300;
                terminals_per_warehouse = 8;
                think_time_s = 0.2;
                gc_interval_s = Some 30.0;
                contention = { C.default_settings with C.policy };
                retries = 5;
                check_si = true;
              }
          in
          let r = o.result in
          let sum get = List.fold_left (fun t (_, ks) -> t + get ks) 0 r.W.per_kind in
          let cs = o.contention_stats in
          let violations =
            Option.fold ~none:0 ~some:Mvcc.Sichecker.violation_count o.checker
          in
          let key = engine ^ "/" ^ C.policy_to_string policy in
          record key
            [
              ("notpm", "1/min", r.W.notpm);
              ("conflicts", "count", float_of_int (sum (fun ks -> ks.W.conflicts)));
              ("retries", "count", float_of_int (sum (fun ks -> ks.W.retries)));
              ("victim_aborts", "count", float_of_int cs.C.victim_aborts);
              ("si_violations", "count", float_of_int violations);
            ];
          gate (violations = 0)
            (Printf.sprintf "%s: %d SI checker violations" key violations);
          let verdict =
            if violations = 0 then "OK" else Printf.sprintf "%d VIOLATIONS" violations
          in
          T.add_row tbl
            [
              engine_name engine;
              C.policy_to_string policy;
              T.fmt_float ~decimals:0 r.W.notpm;
              string_of_int (sum (fun ks -> ks.W.conflicts));
              string_of_int (sum (fun ks -> ks.W.retries));
              string_of_int (sum (fun ks -> ks.W.gave_ups));
              string_of_int cs.C.victim_aborts;
              verdict;
            ])
        C.all_policies)
    [ "si"; "si-cv"; "sias"; "sias-v" ];
  T.print tbl;
  note "the driver is a serial discrete-event loop: transactions never overlap, so";
  note "client-visible conflicts stay at zero and every policy agrees; policies and";
  note "the retry loop differentiate under the interleaved-transaction test suite."

let ablation_groupcommit () =
  section
    "Commit pipeline: sync vs group vs async -- TPC-C 1 WH, WAL on its own SSD";
  let module CP = Sias_wal.Commitpipe in
  let modes =
    [ ("sync", true, 0.0); ("group", true, 0.0007); ("async", false, 0.0) ]
  in
  let terminal_counts = if !full then [ 8; 16; 32 ] else [ 8; 16 ] in
  let tbl =
    T.create
      [
        "engine"; "terms"; "mode"; "NOTPM"; "resp(ms)"; "fsyncs"; "saved";
        "max grp"; "walwr"; "WAL MB";
      ]
  in
  List.iter
    (fun engine ->
      List.iter
        (fun terminals ->
          let cells =
            List.map
              (fun (label, sync_commit, delay) ->
                let o =
                  run_tpcc
                    {
                      (default_setup ~engine ~warehouses:1) with
                      duration_s = 30.0;
                      buffer_pages = 4096;
                      scale_div = 300;
                      terminals_per_warehouse = terminals;
                      (* saturation regime: terminals pile up inside the
                         commit window, so sharing the fsync pays *)
                      think_time_s = 0.005;
                      gc_interval_s = Some 30.0;
                      synchronous_commit = sync_commit;
                      commit_delay_s = delay;
                      wal_device = Some Ssd_single;
                    }
                in
                let cs = o.commit_stats in
                let fields =
                  [
                    ("notpm", "1/min", o.result.W.notpm);
                    ("new_order_resp_ms", "sim_ms", 1000.0 *. W.resp_mean o.result W.New_order);
                    ("commit_fsyncs", "count", float_of_int cs.CP.commit_fsyncs);
                    ("fsyncs_saved", "count", float_of_int cs.CP.fsyncs_saved);
                    ("max_group", "count", float_of_int cs.CP.max_group);
                    ("walwriter_flushes", "count", float_of_int cs.CP.walwriter_flushes);
                    ("wal_write_mb", "MB", o.wal_write_mb);
                  ]
                in
                T.add_row tbl
                  (engine_name engine :: string_of_int terminals :: label
                  :: List.map2
                       (fun (_, _, v) decimals -> T.fmt_float ~decimals v)
                       fields [ 0; 2; 0; 0; 0; 0; 1 ]);
                record (Printf.sprintf "%s/t%d/%s" engine terminals label) fields;
                (cs.CP.commit_fsyncs, o.result.W.notpm))
              modes
          in
          (* going sync -> group -> async, commit-path fsyncs fall to zero
             and throughput does not regress (a --commit-delay or
             --synchronous-commit override rewrites the sync cell) *)
          match cells with
          | [ (fs, ns); (fg, ng); (fa, na) ] when !commit_override = None ->
              let cell = Printf.sprintf "%s/t%d" engine terminals in
              gate (fs > fg && fg > fa && fa = 0)
                (Printf.sprintf "%s: commit fsyncs must fall sync > group > async = 0, got %d, %d, %d"
                   cell fs fg fa);
              gate (ns <= ng && ng <= na)
                (Printf.sprintf "%s: NOTPM must hold sync <= group <= async, got %.0f, %.0f, %.0f"
                   cell ns ng na)
          | _ -> ())
        terminal_counts)
    [ "si"; "si-cv"; "sias"; "sias-v" ];
  T.print tbl;
  note "group: commits arriving within commit_delay share one fsync and are";
  note "charged its completion; async: commit acks at WAL append and the";
  note "WAL-writer trickle bounds the loss window (never corruption).";
  note "postgres: commit_delay / synchronous_commit=off, on a simulated SSD."

let ablation_repl () =
  section
    "Replication: standby lag vs commit_delay -- TPC-C 1 WH, lossy WAL-shipping link";
  let module R = Sias_repl.Repl in
  let delays = if !full then [ 0.0; 0.0005; 0.002 ] else [ 0.0; 0.002 ] in
  let tbl =
    T.create
      [
        "engine"; "mode"; "delay(ms)"; "NOTPM"; "shipped"; "installed"; "lag";
        "retrans"; "degraded"; "drops";
      ]
  in
  List.iter
    (fun engine ->
      List.iter
        (fun (mode : R.mode) ->
          List.iter
            (fun delay ->
              let o =
                run_tpcc
                  {
                    (default_setup ~engine ~warehouses:1) with
                    duration_s = (if !full then 30.0 else 10.0);
                    buffer_pages = 4096;
                    scale_div = 300;
                    terminals_per_warehouse = 8;
                    think_time_s = 0.005;
                    gc_interval_s = Some 30.0;
                    commit_delay_s = delay;
                    wal_device = Some Ssd_single;
                    repl_mode = Some mode;
                    repl_link = Sias_repl.Link.lossy;
                  }
              in
              let rs = Option.get o.repl_stats in
              let fields =
                [
                  ("notpm", "1/min", o.result.W.notpm);
                  ("shipped_records", "count", float_of_int rs.R.shipped_records);
                  ("installed_records", "count", float_of_int rs.R.installed_records);
                  ("lag_records", "count", float_of_int rs.R.lag_records);
                  ("retransmits", "count", float_of_int rs.R.retransmits);
                  ("degraded_acks", "count", float_of_int rs.R.degraded_acks);
                  ("link_dropped", "count", float_of_int rs.R.link_dropped);
                ]
              in
              T.add_row tbl
                (engine_name engine :: rs.R.mode_label
                :: T.fmt_float ~decimals:2 (1000.0 *. delay)
                :: List.map (fun (_, _, v) -> T.fmt_float ~decimals:0 v) fields);
              record
                (Printf.sprintf "%s/%s/delay%gms" engine rs.R.mode_label (1000.0 *. delay))
                fields)
            delays)
        [ R.Ship_async; R.Remote_flush ])
    [ "si"; "si-cv"; "sias"; "sias-v" ];
  T.print tbl;
  note "async ships after local fsync: commits never wait, lag is whatever the";
  note "lossy link and go-back-N leave outstanding. remote-flush makes the";
  note "commit (or the whole commit group, under commit_delay) wait for the";
  note "standby flush ack, so one round-trip amortizes across the group:";
  note "larger delay -> fewer round-trips -> higher NOTPM on a lossy link,";
  note "at zero standby lag. degraded counts commits acked locally after";
  note "retry exhaustion."

(* ------------------------------------------------------------------ *)
(* bench isolation: si vs ssi vs wsi across the engine registry        *)

(* Two legs per (engine, level) cell.

   Anomaly leg: a seeded pairwise write-skew loop (two concurrent
   transactions each read both counters, one writes one of them) with the
   online serializability checker attached. Under plain SI the committed
   history contains rw-antidependency cycles -- the checker's cycle count
   is the anomaly rate. Under ssi/wsi the cell must show ZERO cycles: the
   level converts each would-be anomaly into a serialization abort, which
   we report as the abort rate.

   Throughput leg: a short TPC-C run at the level, so the JSON records
   the overhead delta (NOTPM, aborts) of serializability tracking vs the
   same engine at plain SI. The TPC-C driver is a serial discrete-event
   loop, so the delta isolates tracking cost (SIREAD bookkeeping CPU),
   not abort churn. *)

let ablation_isolation () =
  section
    "Isolation: si vs ssi vs wsi -- anomaly rate, abort rate, NOTPM (4 engines)";
  let module V = Mvcc.Value in
  let module Db = Mvcc.Db in
  let anomaly_leg engine level =
    let _, (module E : Mvcc.Engine.S) = Mvcc.Engine.resolve_exn engine in
    let bus = Sias_obs.Bus.create () in
    let db =
      Db.create ~bus ~isolation:(Mvcc.Isolation.of_string_exn level) ()
    in
    let ck = Mvcc.Sichecker.attach bus in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 () in
    let txn = E.begin_txn eng in
    E.insert eng txn table [| V.Int 1; V.Int 100_000 |] |> Result.get_ok;
    E.insert eng txn table [| V.Int 2; V.Int 100_000 |] |> Result.get_ok;
    E.commit eng txn |> Result.get_ok;
    let rng = Sias_util.Rng.create 17 in
    let rounds = if !full then 400 else 120 in
    let committed = ref 0 and aborted = ref 0 in
    for _ = 1 to rounds do
      let t1 = E.begin_txn eng in
      let t2 = E.begin_txn eng in
      let attempt t =
        let v1 = V.int (Option.get (E.read eng t table ~pk:1)).(1) in
        let v2 = V.int (Option.get (E.read eng t table ~pk:2)).(1) in
        let amount = 1 + Sias_util.Rng.int rng 5 in
        let pk = 1 + Sias_util.Rng.int rng 2 in
        if v1 + v2 - amount >= 0 then
          ignore
            (E.update eng t table ~pk (fun r ->
                 let r = Array.copy r in
                 r.(1) <- V.Int ((if pk = 1 then v1 else v2) - amount);
                 r))
      in
      attempt t1;
      attempt t2;
      (match E.commit eng t1 with
      | Ok () -> incr committed
      | Error _ -> incr aborted);
      match E.commit eng t2 with
      | Ok () -> incr committed
      | Error _ -> incr aborted
    done;
    let mgr = Db.ssimgr db in
    let stat f = match mgr with None -> 0 | Some m -> f m in
    ( Mvcc.Sichecker.cycle_count ck,
      !committed,
      !aborted,
      stat Mvcc.Ssimgr.lineage_edges,
      stat Mvcc.Ssimgr.table_edges )
  in
  let tpcc_leg engine level =
    run_tpcc
      {
        (default_setup ~engine ~warehouses:1) with
        isolation = level;
        duration_s = (if !full then 30.0 else 10.0);
        buffer_pages = 1024;
        scale_div = 300;
        terminals_per_warehouse = 4;
        think_time_s = 0.2;
        gc_interval_s = Some 30.0;
        check_si = true;
      }
  in
  let tbl =
    T.create
      [
        "engine"; "level"; "anomalies"; "ser aborts"; "abort%"; "NOTPM";
        "dNOTPM%"; "lin-edges"; "tbl-edges"; "checker";
      ]
  in
  List.iter
    (fun engine ->
      let si_notpm = ref 0.0 in
      List.iter
        (fun level ->
          let cycles, committed, aborted, lin, tab =
            anomaly_leg engine level
          in
          let o = tpcc_leg engine level in
          let notpm = o.result.W.notpm in
          if level = "si" then si_notpm := notpm;
          let delta =
            if level = "si" || !si_notpm <= 0.0 then 0.0
            else 100.0 *. (notpm -. !si_notpm) /. !si_notpm
          in
          let abort_pct =
            100.0 *. float_of_int aborted
            /. float_of_int (max 1 (committed + aborted))
          in
          let key = engine ^ "/" ^ level in
          let violations, tpcc_cycles =
            match o.checker with
            | Some c -> (Mvcc.Sichecker.violation_count c, Mvcc.Sichecker.cycle_count c)
            | None -> (0, 0)
          in
          (* si must exhibit the anomaly, the serializable levels must
             not, and the TPC-C run must stay checker-clean at every level *)
          if level = "si" then
            gate (cycles > 0) (key ^ ": write skew must commit anomalies under si")
          else begin
            gate (cycles = 0)
              (Printf.sprintf "%s: %d write-skew anomaly cycles committed" key cycles);
            gate (tpcc_cycles = 0)
              (Printf.sprintf "%s: %d TPC-C serializability cycles" key tpcc_cycles)
          end;
          gate (violations = 0)
            (Printf.sprintf "%s: %d TPC-C SI checker violations" key violations);
          T.add_row tbl
            [
              engine_name engine;
              level;
              string_of_int cycles;
              string_of_int aborted;
              T.fmt_float ~decimals:1 abort_pct;
              T.fmt_float ~decimals:0 notpm;
              T.fmt_float ~decimals:1 delta;
              string_of_int lin;
              string_of_int tab;
              (if tpcc_cycles = 0 then "OK"
               else Printf.sprintf "%d cycles" tpcc_cycles);
            ];
          record key
            [
              ("anomaly_cycles", "count", float_of_int cycles);
              ("serialization_aborts", "count", float_of_int aborted);
              ("abort_rate_pct", "%", abort_pct);
              ("notpm", "1/min", notpm);
              ("notpm_delta_vs_si_pct", "%", delta);
              ("tpcc_aborted", "count", float_of_int o.result.W.total_aborted);
              ("lineage_edges", "count", float_of_int lin);
              ("table_edges", "count", float_of_int tab);
            ])
        [ "si"; "ssi"; "wsi" ])
    [ "si"; "si-cv"; "sias"; "sias-v" ];
  T.print tbl;
  note "anomalies = rw-antidependency cycles the online checker found in the";
  note "COMMITTED history of the write-skew loop: nonzero under plain si (the";
  note "write skew really commits), zero under ssi (pivot aborts) and wsi";
  note "(read-set certification) -- the serialization aborts are the price.";
  note "lin-edges vs tbl-edges: on sias/sias-v the rw edges ride the co-located";
  note "version lineage the visibility walk already traverses; the si engines";
  note "fall back to probing the SIREAD writes table. dNOTPM%% is the tracking";
  note "overhead vs the same engine at plain si (serial driver: pure CPU cost)."

(* ------------------------------------------------------------------ *)
(* bench index: paged B+Tree write amplification + buffer pressure     *)

(* The index write-amplification chapter. Two legs:

   Beyond-RAM leg: every engine on the paged, WAL-logged B+Tree at a
   warehouse count whose heap + index working set exceeds the buffer
   pool, with the page-flush classifier splitting device writes into
   index-page vs heap traffic. Index write amplification = MB of index
   pages flushed / MB of logical entry volume (insertions x 16 bytes).
   The append engines must not lose their headline: SIAS/SIAS-V total
   device writes stay <= SI on the same run, or the bench exits
   non-zero.

   Buffer-pressure leg: the same run across shrinking pools. As frames
   get scarce, index pages compete with heap pages for residency and
   the index share of the write traffic grows -- the figure the paged
   design pays for crash-recoverable indexes with. *)

let ablation_index () =
  section
    "Index: paged WAL-logged B+Tree -- write amplification, beyond-RAM TPC-C";
  let run ~engine ~index ~buffer_pages =
    run_tpcc
      {
        (default_setup ~engine ~warehouses:20) with
        index;
        measure_index_io = true;
        buffer_pages;
        duration_s = (if !full then 120.0 else 30.0);
        gc_interval_s = Some 30.0;
        keep_trace_records = false;
      }
  in
  let tbl =
    T.create
      [
        "engine"; "NOTPM"; "W MB"; "ix W MB"; "heap W MB"; "ix logical";
        "ix WA"; "splits"; "merges"; "height";
      ]
  in
  let si_write_mb = ref 0.0 in
  List.iter
    (fun engine ->
      let o = run ~engine ~index:"paged" ~buffer_pages:512 in
      let io = Option.get o.index_io in
      let wa = io.ix_flush_mb /. Float.max 1e-9 io.ix_logical_mb in
      if engine = "si" then si_write_mb := o.run_write_mb;
      (* the paper's headline must survive the paged index: the append
         engines cannot write more to the device than SI on this run *)
      if engine = "sias" || engine = "sias-v" then
        gate (o.run_write_mb <= !si_write_mb +. 0.05)
          (Printf.sprintf "%s wrote %.1f MB > SI's %.1f MB with the paged index" engine
             o.run_write_mb !si_write_mb);
      T.add_row tbl
        [
          engine_name engine;
          T.fmt_float ~decimals:0 o.result.W.notpm;
          T.fmt_float ~decimals:1 o.run_write_mb;
          T.fmt_float ~decimals:2 io.ix_flush_mb;
          T.fmt_float ~decimals:2 io.heap_flush_mb;
          T.fmt_float ~decimals:2 io.ix_logical_mb;
          T.fmt_float ~decimals:2 wa;
          string_of_int io.ix_splits;
          string_of_int io.ix_merges;
          string_of_int io.ix_height;
        ];
      record (engine ^ "/paged")
        [
          ("notpm", "1/min", o.result.W.notpm);
          ("device_write_mb", "MB", o.run_write_mb);
          ("device_read_mb", "MB", o.run_read_mb);
          ("index_flush_mb", "MB", io.ix_flush_mb);
          ("index_flush_pages", "pages", float_of_int io.ix_flush_count);
          ("heap_flush_mb", "MB", io.heap_flush_mb);
          ("index_logical_mb", "MB", io.ix_logical_mb);
          ("index_write_amplification", "ratio", wa);
          ("index_entries", "count", float_of_int io.ix_entries);
          ("index_nodes", "count", float_of_int io.ix_nodes);
          ("index_height", "count", float_of_int io.ix_height);
          ("index_splits", "count", float_of_int io.ix_splits);
          ("index_merges", "count", float_of_int io.ix_merges);
        ])
    [ "si"; "si-cv"; "sias"; "sias-v" ];
  T.print tbl;
  note "ix WA = index MB flushed / logical entry MB: slotted 8 KB pages";
  note "re-flushed across checkpoints amplify each 16-byte entry; the array";
  note "index writes nothing (rebuilt from the heap) but loses crash recovery.";
  (* array-vs-paged device-write delta on one append engine, same run *)
  let arr = run ~engine:"sias-v" ~index:"array" ~buffer_pages:512 in
  let arr_io = Option.get arr.index_io in
  note "";
  note "sias-v array index, same run: %.0f NOTPM, %.1f MB written (ix %.2f MB)"
    arr.result.W.notpm arr.run_write_mb arr_io.ix_flush_mb;
  record "sias-v/array"
    [
      ("notpm", "1/min", arr.result.W.notpm);
      ("device_write_mb", "MB", arr.run_write_mb);
      ("index_flush_mb", "MB", arr_io.ix_flush_mb);
      ("heap_flush_mb", "MB", arr_io.heap_flush_mb);
    ];
  (* buffer-pressure sweep: index share of the writes vs pool size *)
  let buffers = if !full then [ 256; 512; 1024; 2048; 4096 ] else [ 256; 1024; 4096 ] in
  let tbl =
    T.create [ "buffer pages"; "NOTPM"; "ix W MB"; "heap W MB"; "ix share %" ]
  in
  List.iter
    (fun buffer_pages ->
      let o = run ~engine:"sias-v" ~index:"paged" ~buffer_pages in
      let io = Option.get o.index_io in
      let share =
        100.0 *. io.ix_flush_mb
        /. Float.max 1e-9 (io.ix_flush_mb +. io.heap_flush_mb)
      in
      T.add_row tbl
        [
          string_of_int buffer_pages;
          T.fmt_float ~decimals:0 o.result.W.notpm;
          T.fmt_float ~decimals:2 io.ix_flush_mb;
          T.fmt_float ~decimals:2 io.heap_flush_mb;
          T.fmt_float ~decimals:1 share;
        ];
      record
        (Printf.sprintf "sias-v/paged/buf%d" buffer_pages)
        [
          ("buffer_pages", "pages", float_of_int buffer_pages);
          ("notpm", "1/min", o.result.W.notpm);
          ("index_flush_mb", "MB", io.ix_flush_mb);
          ("heap_flush_mb", "MB", io.heap_flush_mb);
          ("index_write_share_pct", "%", share);
        ])
    buffers;
  T.print tbl;
  note "shrinking the pool forces index pages out through the same bgwriter/";
  note "checkpoint machinery as heap pages: the index share of device writes";
  note "is the residency price of a crash-recoverable index."

(* ------------------------------------------------------------------ *)
(* bench micro: wall-clock ops/sec on the engine hot paths             *)

(* Unlike everything above, these measure host wall time, not simulated
   time: they exist to prove the hot-path data structures (hint bits,
   array CLOG, binary-search snapshots, fixed-slot vectors) got faster.
   Simulated results are byte-identical by construction; wall clock is
   where the win shows. Every figure is a [Wall] row. Same-host A/B
   comparisons go through perfbench/run.py, which pairs repeated runs. *)

(* CLOCK_MONOTONIC, not [Unix.gettimeofday]: wall-of-day steps under NTP
   slew/step, so a timed window could be negative or wildly long and a
   "peak rate" could be fiction. The monotonic clock cannot go back. *)
let wall = Sias_util.Monotime.now

(* Best-of-trials peak rate: short timed windows, keep the fastest. The
   max filters out bursty interference from a shared host, which a single
   long window folds into the mean. [batch] returns its op count. *)
let time_ops ~min_time batch =
  ignore (batch ());
  let trials = if !full then 12 else 6 in
  let window = Float.max 0.05 (min_time /. float_of_int trials) in
  let best = ref 0.0 in
  for _ = 1 to trials do
    let t0 = wall () in
    let ops = ref 0 in
    while wall () -. t0 < window do
      ops := !ops + batch ()
    done;
    let rate = float_of_int !ops /. Float.max 1e-9 (wall () -. t0) in
    if rate > !best then best := rate
  done;
  !best

let micro_engine (module E : Mvcc.Engine.S) =
  let module V = Mvcc.Value in
  let min_time = if !full then 2.0 else 0.4 in
  let rng = Sias_util.Rng.create 99 in
  (* plain table: point reads, scans, updates *)
  let db = Mvcc.Db.create ~buffer_pages:4096 () in
  let eng = E.create db in
  let plain = E.create_table eng ~name:"plain" ~pk_col:0 () in
  let n_plain = 2_000 in
  let txn = E.begin_txn eng in
  for k = 1 to n_plain do
    E.insert eng txn plain [| V.Int k; V.Str (String.make 40 'p') |] |> Result.get_ok
  done;
  E.commit eng txn |> Result.get_ok;
  let reader = E.begin_txn eng in
  let point_read =
    time_ops ~min_time (fun () ->
        for _ = 1 to 256 do
          ignore (E.read eng reader plain ~pk:(1 + Sias_util.Rng.int rng n_plain))
        done;
        256)
  in
  let scan = time_ops ~min_time (fun () -> E.scan eng reader plain (fun _ -> ())) in
  E.commit eng reader |> Result.get_ok;
  let update =
    time_ops ~min_time (fun () ->
        let txn = E.begin_txn eng in
        let ok = ref 0 in
        for _ = 1 to 64 do
          match
            E.update eng txn plain ~pk:(1 + Sias_util.Rng.int rng n_plain) (fun r -> r)
          with
          | Ok () -> incr ok
          | Error _ -> ()
        done;
        E.commit eng txn |> Result.get_ok;
        !ok)
  in
  (* paged B+Tree probes: the same hot paths routed through the
     WAL-logged slotted-page index instead of the in-memory array tree
     (nodes read in place on their pinned buffer-pool page, one pin per
     node visited, WAL-first inserts) *)
  let db = Mvcc.Db.create ~buffer_pages:4096 ~index:`Paged () in
  let eng_p = E.create db in
  let paged = E.create_table eng_p ~name:"paged" ~pk_col:0 () in
  let n_paged = 2_000 in
  let txn = E.begin_txn eng_p in
  for k = 1 to n_paged do
    E.insert eng_p txn paged [| V.Int k; V.Str (String.make 40 'q') |]
    |> Result.get_ok
  done;
  E.commit eng_p txn |> Result.get_ok;
  let reader = E.begin_txn eng_p in
  let btree_point =
    time_ops ~min_time (fun () ->
        for _ = 1 to 256 do
          ignore (E.read eng_p reader paged ~pk:(1 + Sias_util.Rng.int rng n_paged))
        done;
        256)
  in
  let btree_range =
    time_ops ~min_time (fun () ->
        let lo = 1 + Sias_util.Rng.int rng (n_paged - 128) in
        List.length (E.range_pk eng_p reader paged ~lo ~hi:(lo + 127)))
  in
  E.commit eng_p reader |> Result.get_ok;
  let next_key = ref (n_paged + 1) in
  let btree_insert =
    time_ops ~min_time (fun () ->
        let txn = E.begin_txn eng_p in
        for _ = 1 to 64 do
          E.insert eng_p txn paged [| V.Int !next_key; V.Str "i" |]
          |> Result.get_ok;
          incr next_key
        done;
        E.commit eng_p txn |> Result.get_ok;
        64)
  in
  (* visibility-heavy scan: deep version history read under snapshots
     with a large concurrent set -- the hot path the hint bits, array
     CLOG and binary-search snapshots attack *)
  let db = Mvcc.Db.create ~buffer_pages:8192 () in
  let eng = E.create db in
  let hot = E.create_table eng ~name:"hot" ~pk_col:0 () in
  let n_hot = 400 in
  let txn = E.begin_txn eng in
  for k = 1 to n_hot do
    E.insert eng txn hot [| V.Int k; V.Str (String.make 24 'h') |] |> Result.get_ok
  done;
  E.commit eng txn |> Result.get_ok;
  (* deep version history, half of it from aborted writers: a scan must
     reject every aborted and superseded version it meets *)
  for round = 1 to 24 do
    let txn = E.begin_txn eng in
    for k = 1 to n_hot do
      E.update eng txn hot ~pk:k (fun r -> r) |> Result.get_ok
    done;
    if round land 1 = 0 then E.abort eng txn else E.commit eng txn |> Result.get_ok
  done;
  (* a crowd of transactions stays open so every snapshot carries a big
     concurrent set, and the crowd keeps the CLOG busy *)
  let crowd = List.init 2_000 (fun _ -> E.begin_txn eng) in
  let reader = E.begin_txn eng in
  ignore (E.scan eng reader hot (fun _ -> ()));
  let vis_scan = time_ops ~min_time (fun () -> E.scan eng reader hot (fun _ -> ())) in
  E.commit eng reader |> Result.get_ok;
  List.iter (fun t -> E.abort eng t) crowd;
  [
    ("point_read_ops_per_s", "1/s", point_read);
    ("scan_rows_per_s", "rows/s", scan);
    ("update_ops_per_s", "1/s", update);
    ("btree_point_lookup_ops_per_s", "1/s", btree_point);
    ("btree_range_scan_rows_per_s", "rows/s", btree_range);
    ("btree_insert_ops_per_s", "1/s", btree_insert);
    ("visibility_scan_rows_per_s", "rows/s", vis_scan);
  ]

(* Engine-independent visibility check: the bare isVisible predicate
   against a populated transaction manager -- CLOG representation and
   snapshot membership with nothing else on the path. *)
let micro_core () =
  let module Txn = Sias_txn.Txn in
  let min_time = if !full then 2.0 else 0.4 in
  let mgr = Txn.create_mgr () in
  let n = 20_000 in
  let xids = Array.init n (fun _ -> Txn.begin_txn mgr) in
  Array.iteri
    (fun i t -> if i land 3 = 3 then Txn.abort mgr t else Txn.commit mgr t)
    xids;
  let crowd = List.init 2_000 (fun _ -> Txn.begin_txn mgr) in
  let reader = Txn.begin_txn mgr in
  let rng = Sias_util.Rng.create 7 in
  let rate =
    time_ops ~min_time (fun () ->
        let hits = ref 0 in
        for _ = 1 to 1024 do
          if Txn.visible mgr reader.Txn.snapshot (1 + Sias_util.Rng.int rng n) then
            incr hits
        done;
        1024)
  in
  Txn.commit mgr reader;
  List.iter (fun t -> Txn.abort mgr t) crowd;
  record ~kind:Wall "core" [ ("visibility_check_ops_per_s", "1/s", rate) ];
  note "isVisible predicate (20k xids, 2k concurrent): %.0f checks/s" rate

let micro () =
  section "Micro-benchmarks: wall-clock ops/sec on the engine hot paths";
  micro_core ();
  let results = List.map (fun (key, m) -> (key, micro_engine m)) (Mvcc.Engine.all ()) in
  List.iter (fun (key, fields) -> record ~kind:Wall key fields) results;
  let tbl =
    T.create
      [
        "engine"; "point read/s"; "scan rows/s"; "update/s"; "paged lookup/s";
        "paged range rows/s"; "paged insert/s"; "vis-scan rows/s";
      ]
  in
  List.iter
    (fun (key, fields) ->
      T.add_row tbl
        (engine_name key :: List.map (fun (_, _, v) -> T.fmt_float ~decimals:0 v) fields))
    results;
  T.print tbl

(* The results file: a header naming the chapters that ran, then one row
   per line, so grep and diff can compare runs. *)
let write_results ~chapters ~wall_s path =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": %S,\n  \"mode\": %S,\n  \"wall_time_s\": %.2f,\n  \"rows\": ["
    (String.concat " " chapters)
    (if !full then "full" else "quick")
    wall_s;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "%s\n    {\"chapter\": %S, \"key\": %S, \"metric\": %S, \"unit\": %S, \"kind\": %S, \"value\": %.8g}"
        (if i > 0 then "," else "")
        r.chapter r.key r.metric r.unit
        (match r.kind with Sim -> "sim" | Wall -> "wall")
        r.value)
    (List.rev !rows);
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Printf.printf "bench results -> %s\n%!" path

(* ------------------------------------------------------------------ *)
(* multicore: N shards of the same TPC-C setup, each a complete run_tpcc
   on its own OCaml 5 domain. Weak scaling, TPC-C's own mode: warehouses
   are per shard, so N domains simulate an N-times larger system and
   aggregate NOTPM should track N. Wall NOTPM shows the parallel speedup
   on real cores (on a single-core host the wall figure stays flat --
   that is the machine, not the sharding). Every shard runs with the SI
   checker attached; any violation fails the whole bench run. *)

let multicore_bench () =
  section "Multicore: sharded TPC-C on OCaml 5 domains (weak scaling)";
  let engines = if !full then [ "si"; "si-cv"; "sias"; "sias-v" ] else [ "sias-v" ] in
  let domain_counts = if !full then [ 1; 2; 4; 8 ] else [ 1; 2; 4 ] in
  note "host: %d recommended domains" (Domain.recommended_domain_count ());
  List.iter
    (fun engine ->
      let base_notpm = ref 0.0 in
      List.iter
        (fun domains ->
          let setup =
            {
              (default_setup ~engine ~warehouses:1) with
              duration_s = (if !full then 300.0 else 60.0);
              check_si = true;
            }
          in
          let a = aggregate (run_shards ~domains setup) in
          if domains = 1 then base_notpm := a.agg_notpm;
          let speedup =
            if !base_notpm > 0.0 then a.agg_notpm /. !base_notpm else 0.0
          in
          note
            "  %-7s domains=%d  agg %7.0f NOTPM (%.2fx vs 1 domain)  wall %6.2fs \
             %7.0f NOTPM-wall  violations %d"
            engine domains a.agg_notpm speedup a.wall_s a.wall_notpm a.violations;
          let key = Printf.sprintf "%s/d%d" engine domains in
          record key
            [
              ("domains", "count", float_of_int domains);
              ("warehouses_per_domain", "count", float_of_int setup.warehouses);
              ("agg_notpm", "1/min", a.agg_notpm);
              ("notpm_scaling_vs_1domain", "ratio", speedup);
              ("total_committed", "count", float_of_int a.committed);
              ("new_orders", "count", float_of_int a.new_orders);
              ("violations", "count", float_of_int a.violations);
            ];
          record ~kind:Wall key
            [ ("wall_s", "s", a.wall_s); ("wall_notpm", "1/min", a.wall_notpm) ];
          gate (a.violations = 0)
            (Printf.sprintf "%s: %d SI checker violations" key a.violations))
        domain_counts)
    engines

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("figure3", figure3);
    ("figure4", figure4);
    ("figure5", figure5);
    ("figure6", figure6);
    ("scan", ablation_scan);
    ("vectors", ablation_vectors);
    ("gc", ablation_gc);
    ("noftl", ablation_noftl);
    ("vidmap", ablation_vidmap);
    ("endurance", ablation_endurance);
    ("contention", ablation_contention);
    ("groupcommit", ablation_groupcommit);
    ("repl", ablation_repl);
    ("isolation", ablation_isolation);
    ("index", ablation_index);
    ("micro", micro);
    ("multicore", multicore_bench);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Flag filter: consume --full, --faults <seed>, --fault-profile <name>,
     --metrics-out <path>, --trace-out <path>; whatever remains names the
     experiments to run. *)
  let fault_seed = ref None in
  let fault_profile = ref Flashsim.Faultdev.light in
  let metrics_out = ref None in
  let trace_out = ref None in
  let sync_commit = ref true in
  let commit_delay = ref 0.0 in
  let rec filter = function
    | [] -> []
    | "--full" :: rest ->
        full := true;
        filter rest
    | "--commit-delay" :: s :: rest ->
        (match float_of_string_opt s with
        | Some d when d >= 0.0 -> commit_delay := d
        | _ -> Printf.printf "--commit-delay needs a non-negative float, got %S\n" s);
        filter rest
    | "--synchronous-commit" :: s :: rest ->
        (match s with
        | "on" -> sync_commit := true
        | "off" -> sync_commit := false
        | _ -> Printf.printf "--synchronous-commit needs on or off, got %S\n" s);
        filter rest
    | "--faults" :: seed :: rest ->
        (match int_of_string_opt seed with
        | Some s -> fault_seed := Some s
        | None -> Printf.printf "--faults needs an integer seed, got %S\n" seed);
        filter rest
    | "--fault-profile" :: name :: rest ->
        (match Flashsim.Faultdev.profile_of_string name with
        | Ok p -> fault_profile := p
        | Error e -> Printf.printf "%s\n" e);
        filter rest
    | "--metrics-out" :: path :: rest ->
        metrics_out := Some path;
        filter rest
    | "--bench-out" :: path :: rest ->
        bench_out := Some path;
        filter rest
    | "--trace-out" :: path :: rest ->
        trace_out := Some path;
        filter rest
    | a :: rest -> a :: filter rest
  in
  let args = filter args in
  (match !fault_seed with
  | Some seed ->
      fault_override := Some (seed, !fault_profile);
      Printf.printf "fault injection: seed %d, profile %s\n%!" seed
        (Flashsim.Faultdev.profile_name !fault_profile)
  | None -> ());
  if (not !sync_commit) || !commit_delay > 0.0 then begin
    commit_override := Some (!sync_commit, !commit_delay);
    Printf.printf "commit pipeline: synchronous_commit=%s commit_delay=%gs\n%!"
      (if !sync_commit then "on" else "off")
      !commit_delay
  end;
  if !metrics_out <> None || !trace_out <> None then begin
    (* each run_tpcc overwrites the files; the surviving artifacts are
       the last experiment's run, which is what a smoke invocation of a
       single experiment wants *)
    obs_override := Some (!metrics_out, !trace_out);
    Option.iter (fun p -> Printf.printf "metrics -> %s\n%!" p) !metrics_out;
    Option.iter (fun p -> Printf.printf "trace -> %s\n%!" p) !trace_out
  end;
  let chosen = match args with [] | [ "all" ] -> List.map fst experiments | l -> l in
  (* every name is checked before anything runs: a typo must not cost a
     long run of the names before it, nor pass as success *)
  (match List.filter (fun name -> not (List.mem_assoc name experiments)) chosen with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown experiment%s %s; available: %s\n"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
        (String.concat ", " (List.map fst experiments));
      exit 2);
  let t0 = Sias_util.Monotime.now () in
  List.iter
    (fun name ->
      chapter := name;
      (List.assoc name experiments) ())
    chosen;
  let wall_s = Sias_util.Monotime.elapsed_since t0 in
  Printf.printf "\n(total wall time %.1f s%s)\n" wall_s
    (if !full then ", full mode" else ", quick mode; pass --full for paper-scale parameters");
  Option.iter (write_results ~chapters:chosen ~wall_s) !bench_out;
  match List.rev !gate_failures with
  | [] -> ()
  | failures ->
      Printf.printf "\nGATE FAILED: %d check(s) did not hold\n" (List.length failures);
      List.iter (fun (c, msg) -> Printf.printf "  [%s] %s\n" c msg) failures;
      exit 1
