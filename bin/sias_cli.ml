(* sias_cli: run TPC-C workloads and capture block traces from the
   command line.

     dune exec bin/sias_cli.exe -- run --engine sias --warehouses 50
     dune exec bin/sias_cli.exe -- trace --engine si --duration 30
*)

open Cmdliner
open Harness.Experiments
module W = Tpcc.Tpcc_workload
module B = Flashsim.Blocktrace
module C = Sias_txn.Contention

let engine_conv =
  let parse s =
    match Mvcc.Engine.resolve s with
    | Some (key, _) -> Ok key
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown engine %S; known engines: %s" s
               (Mvcc.Engine.known_keys_hint ())))
  in
  let print fmt e = Format.pp_print_string fmt (engine_name e) in
  Arg.conv (parse, print)

let isolation_conv =
  let parse s =
    match Mvcc.Isolation.of_string s with
    | Some l -> Ok (Mvcc.Isolation.to_string l)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown isolation level %S; known levels: %s" s
               (Mvcc.Isolation.known_keys_hint ())))
  in
  Arg.conv (parse, Format.pp_print_string)

let device_conv =
  let parse = function
    | "ssd" -> Ok Ssd_single
    | "hdd" -> Ok Hdd_single
    | s when String.length s > 4 && String.sub s 0 4 = "ssd:" -> (
        match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
        | Some blocks when blocks > 8 -> Ok (Ssd_sized blocks)
        | _ -> Error (`Msg "ssd:<blocks> needs a positive block count"))
    | "raid2" -> Ok (Ssd_raid 2)
    | "raid6" -> Ok (Ssd_raid 6)
    | s -> Error (`Msg (Printf.sprintf "unknown device %S (ssd|hdd|raid2|raid6)" s))
  in
  let print fmt = function
    | Ssd_single -> Format.pp_print_string fmt "ssd"
    | Ssd_sized b -> Format.fprintf fmt "ssd:%d" b
    | Hdd_single -> Format.pp_print_string fmt "hdd"
    | Ssd_raid n -> Format.fprintf fmt "raid%d" n
  in
  Arg.conv (parse, print)

let engine_arg =
  Arg.(value & opt engine_conv "sias" & info [ "e"; "engine" ] ~doc:"Engine: si, si-cv, sias, sias-v.")

let device_arg =
  Arg.(value & opt device_conv Ssd_single & info [ "device" ] ~doc:"ssd, ssd:<blocks>, hdd, raid2, raid6.")

let isolation_arg =
  Arg.(
    value
    & opt isolation_conv "si"
    & info [ "isolation" ]
        ~doc:
          "Isolation level: si (default), ssi (serializable) or wsi \
           (write-snapshot).")

let index_conv =
  Arg.conv
    ( (function
      | "array" -> Ok "array"
      | "paged" -> Ok "paged"
      | s -> Error (`Msg (Printf.sprintf "unknown index kind %S (array|paged)" s))),
      Format.pp_print_string )

let index_arg =
  Arg.(
    value
    & opt index_conv "array"
    & info [ "index" ]
        ~doc:
          "Index implementation: array (in-memory node images rebuilt from \
           the heap at recovery; the default and the determinism oracle) or \
           paged (WAL-logged slotted B+Tree pages resident in the buffer \
           pool, replayed byte-exact at recovery).")

let warehouses_arg =
  Arg.(value & opt int 20 & info [ "w"; "warehouses" ] ~doc:"TPC-C warehouses.")

let duration_arg =
  Arg.(value & opt float 30.0 & info [ "d"; "duration" ] ~doc:"Simulated seconds.")

let buffer_arg =
  Arg.(value & opt int 2048 & info [ "buffer" ] ~doc:"Buffer pool pages (8 KB each).")

let flush_conv =
  Arg.conv
    ( (function
      | "t1" -> Ok T1
      | "t2" -> Ok T2
      | s -> Error (`Msg (Printf.sprintf "unknown flush policy %S (t1|t2)" s))),
      fun fmt f -> Format.pp_print_string fmt (match f with T1 -> "t1" | T2 -> "t2") )

let flush_arg =
  Arg.(value & opt flush_conv T2 & info [ "flush" ] ~doc:"t1 (bgwriter) or t2 (checkpoint).")

let gc_arg =
  Arg.(
    value
    & opt (some float) (Some 10.0)
    & info [ "gc" ] ~doc:"GC interval (sim s); 0 disables.")

let scale_arg =
  Arg.(value & opt int 100 & info [ "scale-div" ] ~doc:"Cardinality divisor vs spec TPC-C.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let fault_profile_conv =
  let parse s =
    match Flashsim.Faultdev.profile_of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  let print fmt p = Format.pp_print_string fmt (Flashsim.Faultdev.profile_name p) in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "faults" ]
        ~doc:"Inject device faults (transient read errors, bit rot, torn writes) seeded by $(docv)."
        ~docv:"SEED")

let fault_profile_arg =
  Arg.(
    value
    & opt fault_profile_conv Flashsim.Faultdev.light
    & info [ "fault-profile" ] ~doc:"Fault rates: none, light or heavy.")

let policy_conv =
  let parse s =
    match C.policy_of_string s with Ok p -> Ok p | Error e -> Error (`Msg e)
  in
  let print fmt p = Format.pp_print_string fmt (C.policy_to_string p) in
  Arg.conv (parse, print)

let policy_arg =
  Arg.(
    value
    & opt policy_conv C.No_wait
    & info [ "conflict-policy" ]
        ~doc:"Lock-conflict policy: no-wait, wait-die, wound-wait or detect.")

let retries_arg =
  Arg.(
    value
    & opt int 0
    & info [ "retries" ]
        ~doc:"Resubmit conflict-aborted transactions up to $(docv) times (0 = off).")

let max_inflight_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-inflight" ]
        ~doc:"Admission cap on concurrently running transactions.")

let check_si_arg =
  Arg.(
    value
    & flag
    & info [ "check-si" ]
        ~doc:"Verify snapshot-isolation invariants online; exit 1 on violation.")

let terminals_arg =
  Arg.(value & opt int 1 & info [ "terminals" ] ~doc:"Terminals per warehouse.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ]
        ~doc:"Write run-phase metrics as Prometheus text to $(docv)." ~docv:"PATH")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Write a Chrome trace-event JSON of the run phase to $(docv) (open \
           in Perfetto or chrome://tracing)."
        ~docv:"PATH")

let stats_interval_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "stats-interval" ]
        ~doc:
          "Print a progress line to stderr every $(docv) simulated seconds. \
           With $(b,--domains) N > 1 each shard's lines carry $(b,shard) d."
        ~docv:"SECONDS")

let onoff_conv =
  Arg.conv
    ( (function
      | "on" -> Ok true
      | "off" -> Ok false
      | s -> Error (`Msg (Printf.sprintf "expected on or off, got %S" s))),
      fun fmt b -> Format.pp_print_string fmt (if b then "on" else "off") )

let sync_commit_arg =
  Arg.(
    value
    & opt onoff_conv true
    & info [ "synchronous-commit" ]
        ~doc:
          "off acks commits at WAL append and trickle-flushes in the \
           background (a crash may lose the last instants of acked work, \
           never corrupt the log).")

let commit_delay_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "commit-delay" ]
        ~doc:
          "Group commits arriving within $(docv) simulated seconds behind \
           one shared fsync (0 = per-commit fsync)."
        ~docv:"SECONDS")

let repl_mode_conv =
  let parse = function
    | "off" -> Ok None
    | s -> (
        match Sias_repl.Repl.mode_of_string s with
        | Ok m -> Ok (Some m)
        | Error e -> Error (`Msg (e ^ " (or off)")))
  in
  let print fmt = function
    | None -> Format.pp_print_string fmt "off"
    | Some m -> Format.pp_print_string fmt (Sias_repl.Repl.mode_name m)
  in
  Arg.conv (parse, print)

let repl_arg =
  Arg.(
    value
    & opt repl_mode_conv None
    & info [ "repl" ]
        ~doc:
          "Ship the WAL to a hot standby: off (default), async (ship \
           after local fsync) or remote-flush (commits wait for the \
           standby flush acknowledgement).")

let repl_link_conv =
  let parse s =
    match Sias_repl.Link.profile_of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  let print fmt p = Format.pp_print_string fmt (Sias_repl.Link.profile_name p) in
  Arg.conv (parse, print)

let repl_link_arg =
  Arg.(
    value
    & opt repl_link_conv Sias_repl.Link.clean
    & info [ "repl-link" ]
        ~doc:"Replication-link fault profile: clean, wan, lossy or chaos.")

let repl_seed_arg =
  Arg.(
    value
    & opt int 7
    & info [ "repl-seed" ]
        ~doc:"Seed for the replication link's deterministic fault stream.")

let wal_device_arg =
  Arg.(
    value
    & opt (some device_conv) None
    & info [ "wal-device" ]
        ~doc:
          "Put the WAL on its own modeled device (ssd, ssd:<blocks>, hdd, \
           raid2, raid6) so commit fsyncs cost simulated time; default \
           in-memory sink.")

let mk_setup engine isolation index device warehouses duration_s buffer_pages flush gc scale_div seed
    fault_seed fault_profile policy retries max_inflight check_si terminals
    metrics_out trace_out stats_interval_s sync_commit commit_delay wal_device
    repl_mode repl_link repl_seed keep =
  {
    (default_setup ~engine ~warehouses) with
    isolation;
    index;
    device;
    duration_s;
    buffer_pages;
    flush;
    gc_interval_s = (match gc with Some g when g > 0.0 -> Some g | _ -> None);
    scale_div;
    seed;
    fault_seed;
    fault_profile;
    contention = { C.default_settings with C.policy; max_inflight };
    retries;
    (* serializable levels always run under the online checker: the whole
       point of ssi/wsi is a certifiable absence of cycles *)
    check_si = (check_si || isolation <> "si");
    terminals_per_warehouse = terminals;
    metrics_out;
    trace_out;
    stats_interval_s;
    synchronous_commit = sync_commit;
    commit_delay_s = commit_delay;
    wal_device;
    repl_mode;
    repl_link;
    repl_seed;
    keep_trace_records = keep;
  }

let report_obs o =
  Option.iter
    (fun p -> Format.printf "metrics written to %s@." p)
    o.setup.metrics_out;
  Option.iter (fun p -> Format.printf "trace written to %s@." p) o.setup.trace_out

let report_commit o =
  (* only non-default pipelines print, keeping default output unchanged *)
  if (not o.setup.synchronous_commit) || o.setup.commit_delay_s > 0.0 then begin
    Format.printf "%a" Sias_wal.Commitpipe.pp_stats o.commit_stats;
    if o.setup.wal_device <> None then
      Format.printf "wal device: %.2f MB written@." o.wal_write_mb
  end

let report_repl o =
  (* replication off prints nothing, keeping default output unchanged *)
  match o.repl_stats with
  | None -> ()
  | Some s -> Format.printf "%a" Sias_repl.Repl.pp_stats s

let report_contention o =
  Format.printf "%a" C.pp_stats o.contention_stats;
  match o.checker with
  | None -> ()
  | Some c ->
      Format.printf "%s@." (Mvcc.Sichecker.report c);
      (* under a serializable level the checker's cycle detector is an
         additional oracle: any surviving cycle is a bug, counted by
         [checker_failures] *)
      if o.setup.isolation <> "si" then
        Format.printf "%s@." (Mvcc.Sichecker.serializability_report c)

let report_run o =
  Format.printf "%a@.@." pp_output_summary o;
  Format.printf "%a@." W.pp_result o.result;
  List.iter
    (fun k ->
      if W.resp_mean o.result k > 0.0 then
        Format.printf "  %-12s resp mean %.4fs p90 %.4fs max %.4fs@."
          (W.tx_kind_to_string k) (W.resp_mean o.result k) (W.resp_p90 o.result k)
          (W.resp_max o.result k))
    W.all_kinds;
  Format.printf "buffer: %d hits, %d misses, %d evictions, %d flushes@."
    o.buf_stats.Sias_storage.Bufpool.hits o.buf_stats.Sias_storage.Bufpool.misses
    o.buf_stats.Sias_storage.Bufpool.evictions o.buf_stats.Sias_storage.Bufpool.flushes;
  if o.setup.fault_seed <> None then
    Format.printf
      "reliability: %d read retries, %d checksum failures, %d pages repaired, %d torn@."
      o.buf_stats.Sias_storage.Bufpool.read_retries
      o.buf_stats.Sias_storage.Bufpool.checksum_failures
      o.buf_stats.Sias_storage.Bufpool.pages_repaired
      o.buf_stats.Sias_storage.Bufpool.torn_pages;
  List.iter (fun (k, v) -> Format.printf "device: %-28s %.2f@." k v) o.device_info;
  report_obs o;
  report_commit o;
  report_repl o;
  report_contention o

let domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "domains" ]
        ~doc:
          "Run $(docv) shards side by side, each a complete single-domain run \
           (own device, buffer pool, WAL and checker) on its own OCaml domain. \
           Warehouses are per shard (TPC-C weak scaling); every other flag \
           applies to every shard. Shard 0 replays the 1-domain run exactly; \
           with more than one shard, artifact paths gain a .shard<d> suffix.")

let run_cmd =
  let run engine isolation index device warehouses duration buffer flush gc scale seed
      fault_seed fault_profile policy retries max_inflight check_si terminals
      metrics_out trace_out stats_interval sync_commit commit_delay wal_device
      repl repl_link repl_seed domains =
    if domains < 1 then begin
      Format.printf "--domains must be >= 1@.";
      exit 2
    end;
    let outs =
      run_shards ~domains
        (mk_setup engine isolation index device warehouses duration buffer flush gc scale
           seed fault_seed fault_profile policy retries max_inflight check_si
           terminals metrics_out trace_out stats_interval sync_commit commit_delay
           wal_device repl repl_link repl_seed false)
    in
    Array.iteri
      (fun d o ->
        if domains > 1 then
          Format.printf "shard %d (warehouses %d-%d)@." d
            ((d * warehouses) + 1)
            ((d + 1) * warehouses);
        report_run o)
      outs;
    let agg = aggregate outs in
    if domains > 1 then Format.printf "%a@." pp_aggregate agg;
    if agg.violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a TPC-C benchmark and report throughput, latency and I/O.")
    Term.(
      const run $ engine_arg $ isolation_arg $ index_arg $ device_arg $ warehouses_arg $ duration_arg $ buffer_arg
      $ flush_arg $ gc_arg $ scale_arg $ seed_arg $ faults_arg $ fault_profile_arg
      $ policy_arg $ retries_arg $ max_inflight_arg $ check_si_arg $ terminals_arg
      $ metrics_out_arg $ trace_out_arg $ stats_interval_arg $ sync_commit_arg
      $ commit_delay_arg $ wal_device_arg $ repl_arg $ repl_link_arg $ repl_seed_arg
      $ domains_arg)

let trace_cmd =
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Write the trace to $(docv).")
  in
  let run engine isolation index device warehouses duration buffer flush gc scale seed
      fault_seed fault_profile policy retries max_inflight check_si terminals
      metrics_out trace_out stats_interval sync_commit commit_delay wal_device
      repl repl_link repl_seed csv =
    let o =
      run_tpcc
        (mk_setup engine isolation index device warehouses duration buffer flush gc scale
           seed fault_seed fault_profile policy retries max_inflight check_si
           terminals metrics_out trace_out stats_interval sync_commit commit_delay
           wal_device repl repl_link repl_seed true)
    in
    print_endline (B.render_scatter o.trace);
    Format.printf "reads %d (%.1f MB) | writes %d (%.1f MB)@." (B.read_count o.trace)
      o.run_read_mb (B.write_count o.trace) o.run_write_mb;
    (match csv with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (B.to_csv o.trace);
        close_out oc;
        Format.printf "trace written to %s@." path);
    report_obs o;
    report_commit o;
    report_repl o;
    report_contention o;
    if checker_failures o > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a workload and render its block trace (paper Figures 3/4).")
    Term.(
      const run $ engine_arg $ isolation_arg $ index_arg $ device_arg $ warehouses_arg $ duration_arg $ buffer_arg
      $ flush_arg $ gc_arg $ scale_arg $ seed_arg $ faults_arg $ fault_profile_arg
      $ policy_arg $ retries_arg $ max_inflight_arg $ check_si_arg $ terminals_arg
      $ metrics_out_arg $ trace_out_arg $ stats_interval_arg $ sync_commit_arg
      $ commit_delay_arg $ wal_device_arg $ repl_arg $ repl_link_arg $ repl_seed_arg
      $ csv_arg)

(* ---- chaos: crash-schedule exploration + out-of-space smoke ---- *)

let chaos_cmd =
  let module Explorer = Sias_chaos.Explorer in
  let module Chaosrun = Harness.Chaosrun in
  let module Commitpipe = Sias_wal.Commitpipe in
  let engines_arg =
    Arg.(
      value
      & opt (list string) [ "si"; "si-cv"; "sias"; "sias-v" ]
      & info [ "e"; "engines" ] ~docv:"ENGINES"
          ~doc:"Comma-separated engines to explore.")
  in
  let modes_arg =
    Arg.(
      value
      & opt (list string) [ "sync"; "group"; "async" ]
      & info [ "modes" ] ~docv:"MODES"
          ~doc:"Commit modes to cross with the engines (sync, group, async).")
  in
  let standby_arg =
    Arg.(
      value & flag
      & info [ "standby" ] ~doc:"Also explore primary-crash failover schedules.")
  in
  let budget_arg =
    Arg.(
      value & opt int 60
      & info [ "budget" ] ~docv:"N"
          ~doc:"Schedule budget per engine/mode (sampled; see $(b,--full)).")
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Full enumeration: drop the schedule budget (CI nightly mode).")
  in
  let oos_arg =
    Arg.(
      value & opt bool true
      & info [ "oos" ] ~docv:"BOOL"
          ~doc:"Also run the out-of-space reclamation/degradation scenarios.")
  in
  let run engines isolation index modes standby budget full oos =
    let failures = ref 0 in
    let mode_of = function
      | "sync" -> Commitpipe.Sync
      | "group" -> Commitpipe.Group { delay = 0.005 }
      | "async" -> Commitpipe.Async { interval = 0.01; max_bytes = 1 lsl 14 }
      | m -> raise (Invalid_argument ("unknown commit mode " ^ m))
    in
    let cfg ?(depth2 = true) () =
      {
        Explorer.hits_per_point = 2;
        depth2;
        max_schedules = (if full then None else Some budget);
      }
    in
    let report name (r : Explorer.report) =
      Format.printf "== %-18s %3d workload pts, %2d recovery pts, %4d schedules, %d failures@."
        name
        (List.length r.Explorer.points)
        (List.length r.Explorer.recovery_points)
        r.Explorer.schedules_run
        (List.length r.Explorer.failures);
      List.iter
        (fun f ->
          incr failures;
          Format.printf "   FAIL %s: %s@."
            (Explorer.schedule_to_string f.Explorer.schedule)
            f.Explorer.error)
        r.Explorer.failures
    in
    List.iter
      (fun e ->
        List.iter
          (fun m ->
            report
              (Printf.sprintf "%s/%s" e m)
              (Chaosrun.explore ~cfg:(cfg ())
                 (Chaosrun.config ~isolation ~index ~commit_mode:(mode_of m) e)))
          modes;
        if standby then
          report (e ^ "/standby")
            (Chaosrun.explore
               ~cfg:(cfg ~depth2:false ())
               (Chaosrun.config ~isolation ~index ~standby:true e)))
      engines;
    if oos then
      List.iter
        (fun e ->
          let o = Chaosrun.oos_run ~engine:e ~wal_capacity_bytes:20_000 ~ops:400 () in
          let live =
            o.Chaosrun.reclaims > 0 && o.Chaosrun.degraded = None
            && o.Chaosrun.read_only_errors = 0 && o.Chaosrun.consistent
          in
          let h = Chaosrun.oos_run ~hold:true ~engine:e ~wal_capacity_bytes:12_000 ~ops:400 () in
          let loud =
            (h.Chaosrun.read_only_errors > 0 || h.Chaosrun.shed > 0)
            && (h.Chaosrun.degraded <> None || h.Chaosrun.backpressure_on > 0)
            && h.Chaosrun.consistent
          in
          if not live then incr failures;
          if not loud then incr failures;
          Format.printf
            "== oos %-10s reclaim: %d reclaims, %d/%d committed, %s | hold: %d shed, %d refused, %s@."
            e o.Chaosrun.reclaims o.Chaosrun.committed o.Chaosrun.attempted
            (if live then "ok" else "FAIL")
            h.Chaosrun.shed h.Chaosrun.read_only_errors
            (if loud then "ok" else "FAIL"))
        engines;
    if !failures > 0 then begin
      Format.printf "chaos: %d failures@." !failures;
      exit 1
    end;
    Format.printf "chaos: all schedules verified@."
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Explore deterministic crash schedules (every instrumented crash \
          point, including crashes during recovery) and the out-of-space \
          degradation scenarios; non-zero exit if any schedule fails to \
          recover to the model prefix.")
    Term.(
      const run $ engines_arg $ isolation_arg $ index_arg $ modes_arg $ standby_arg
      $ budget_arg $ full_arg $ oos_arg)

let () =
  let info = Cmd.info "sias_cli" ~doc:"SIAS: snapshot-isolation append storage workbench." in
  exit (Cmd.eval (Cmd.group info [ run_cmd; trace_cmd; chaos_cmd ]))
