(* Crash-schedule exploration and out-of-space degradation.

   The explorer enumerates deterministic crash schedules — every named
   crash point reached by a seeded workload, then every point reached
   during the resulting recovery (nested crashes, recovery re-run to
   fixpoint) — and requires each schedule to end byte-equal to the model
   prefix at the commit horizon, with a clean SI-checker verdict and
   idempotent recovery. The out-of-space scenarios drive a finite WAL to
   exhaustion and require either successful emergency reclamation or a
   loud, typed, read-only degradation — never corruption or a crash.

   Bounded by default ([max_schedules]); CHAOS_FULL=1 removes the budget
   for the full enumeration (the [make chaos] CI target). *)

module Db = Mvcc.Db
module Wal = Sias_wal.Wal
module Commitpipe = Sias_wal.Commitpipe
module Device = Flashsim.Device
module Blocktrace = Flashsim.Blocktrace
module Crashpoint = Sias_chaos.Crashpoint
module Explorer = Sias_chaos.Explorer
module Chaosrun = Harness.Chaosrun

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let full_enumeration = Sys.getenv_opt "CHAOS_FULL" = Some "1"

let budget n = if full_enumeration then None else Some n

let explorer_cfg ?(depth2 = true) n =
  { Explorer.hits_per_point = 2; depth2; max_schedules = budget n }

let report_failures r =
  String.concat "; "
    (List.map
       (fun f ->
         Printf.sprintf "%s: %s"
           (Explorer.schedule_to_string f.Explorer.schedule)
           f.Explorer.error)
       r.Explorer.failures)

let assert_clean name r =
  if r.Explorer.failures <> [] then
    Alcotest.failf "%s: %d failing schedules: %s" name
      (List.length r.Explorer.failures)
      (report_failures r);
  check (name ^ ": ran schedules") true (r.Explorer.schedules_run > 0)

(* ---- schedule exploration: engines x commit modes ---- *)

let test_explore engine mode () =
  let c = Chaosrun.config ~commit_mode:mode engine in
  let name =
    Printf.sprintf "%s/%s" engine (Commitpipe.mode_name mode)
  in
  assert_clean name (Chaosrun.explore ~cfg:(explorer_cfg 60) c)

let test_explore_standby engine () =
  let c = Chaosrun.config ~standby:true engine in
  (* depth 1 only: failover "recovery" is promotion, whose nested-crash
     schedules are covered by the promote/install points themselves *)
  assert_clean (engine ^ "/standby")
    (Chaosrun.explore ~cfg:(explorer_cfg ~depth2:false 40) c)

(* the census must see a healthy spread of instrumented subsystems *)
let test_census_coverage () =
  let c =
    Chaosrun.config ~commit_mode:(Commitpipe.Group { delay = 0.005 }) "sias-v"
  in
  let r =
    Chaosrun.explore ~cfg:{ (explorer_cfg 1) with depth2 = false } c
  in
  let names = List.map fst r.Explorer.points in
  let rec_names = List.map fst r.Explorer.recovery_points in
  List.iter
    (fun p ->
      check (Printf.sprintf "workload census reaches %s" p) true
        (List.mem p names))
    [
      "wal.append.pre";
      "wal.flush.pre";
      "wal.fsync.pre";
      "db.commit.wal.pre";
      "db.clog.mark.pre";
      "db.clog.mark.post";
      "db.abort.pre";
      "commitpipe.commit.pre";
      "commitpipe.group.close.pre";
      "walcodec.fpw.pre";
    ];
  List.iter
    (fun p ->
      check (Printf.sprintf "recovery census reaches %s" p) true
        (List.mem p rec_names))
    [
      "recover.clog.pre";
      "recover.clog.post";
      "recover.redo.pre";
      "recover.redo.record";
      "recover.heap.restore";
    ]

(* ---- satellite: recovery idempotency under k nested crashes ---- *)

let test_nested_recovery engine mode () =
  let c = Chaosrun.config ~commit_mode:mode engine in
  (* census one recovery to find a point that is reached many times *)
  let s = Chaosrun.session c in
  s.Explorer.run ();
  s.Explorer.crash ();
  Crashpoint.census ();
  s.Explorer.recover ();
  let pts = Crashpoint.censused () in
  Crashpoint.disarm ();
  s.Explorer.verify ();
  let point =
    match List.find_opt (fun (p, _) -> p = "recover.redo.record") pts with
    | Some (p, _) -> p
    | None -> fst (List.hd pts)
  in
  (* crash recovery k = 1..3 times mid-flight, then let it finish: the
     final state must still verify exactly like the single-pass run *)
  List.iter
    (fun k ->
      let s = Chaosrun.session c in
      s.Explorer.run ();
      s.Explorer.crash ();
      for hit = 1 to k do
        try
          Crashpoint.arm ~point ~hit ();
          s.Explorer.recover ();
          (* the point may be out of reach on a re-run; that is fine *)
          Crashpoint.disarm ()
        with Crashpoint.Crash _ -> s.Explorer.crash ()
      done;
      s.Explorer.recover ();
      s.Explorer.verify ())
    [ 1; 2; 3 ]

(* ---- out of space: typed errors at the WAL and device layers ---- *)

let test_wal_capacity_typed () =
  let clock = Sias_util.Simclock.create () in
  let w = Wal.create ~capacity_bytes:256 ~clock () in
  let payload = Bytes.create 64 in
  let raised = ref (-1) in
  (try
     for _ = 1 to 16 do
       ignore (Wal.append w ~xid:1 ~rel:0 ~kind:Wal.Insert ~payload)
     done
   with Wal.Out_of_space { capacity; _ } -> raised := capacity);
  checki "typed Out_of_space with capacity echoed" 256 !raised;
  (* checkpoint records use the reserved emergency region: they must be
     appendable even when the log is at capacity *)
  ignore (Wal.append w ~xid:0 ~rel:(-1) ~kind:Wal.Checkpoint ~payload);
  check "retained over nominal capacity after checkpoint" true
    (Wal.retained_bytes w > 256)

let test_device_capacity_typed () =
  let dev = Device.ssd_x25e ~name:"tiny" () in
  Device.set_capacity dev ~sectors:64;
  ignore (Device.submit dev ~now:0.0 Blocktrace.Write ~sector:0 ~bytes:512);
  (match
     Device.submit dev ~now:0.0 Blocktrace.Write ~sector:63 ~bytes:1024
   with
  | _ -> Alcotest.fail "expected Device.No_space"
  | exception Device.No_space { sector; capacity_sectors; _ } ->
      checki "sector echoed" 63 sector;
      checki "capacity echoed" 64 capacity_sectors);
  (* reads are not capacity-gated *)
  ignore (Device.submit dev ~now:0.0 Blocktrace.Read ~sector:63 ~bytes:1024)

(* ---- out of space: reclamation keeps the workload live ---- *)

let test_oos_reclamation engine () =
  let o =
    Chaosrun.oos_run ~engine ~wal_capacity_bytes:20_000 ~ops:400 ()
  in
  check "reclamations happened" true (o.Chaosrun.reclaims > 0);
  check "workload survived (no degradation)" true (o.Chaosrun.degraded = None);
  check "no writers refused" true (o.Chaosrun.read_only_errors = 0);
  check "most transactions committed" true
    (o.Chaosrun.committed > o.Chaosrun.attempted / 2);
  check "restart serves the committed model" true o.Chaosrun.consistent

(* ---- out of space: futile reclamation degrades loudly ---- *)

let test_oos_degraded engine () =
  let o =
    Chaosrun.oos_run ~hold:true ~engine ~wal_capacity_bytes:12_000 ~ops:400 ()
  in
  (* a hold pins the whole log: reclamation cannot free anything, so the
     database must refuse writers loudly — through the admission gate
     (backpressure shed) or the typed Read_only error — and stay sound *)
  check "writers were refused" true
    (o.Chaosrun.read_only_errors > 0 || o.Chaosrun.shed > 0);
  check "refusal was loud: degraded mode or backpressure" true
    (o.Chaosrun.degraded <> None || o.Chaosrun.backpressure_on > 0);
  check "some transactions committed before exhaustion" true
    (o.Chaosrun.committed > 0);
  check "restart serves the committed model" true o.Chaosrun.consistent

(* ---- out of space: capacity below a single full-page image ---- *)

let test_oos_hard_degraded () =
  (* 6000 bytes cannot hold even one 8 KiB full-page image: the very
     first writer is refused with the typed error, the database enters
     read-only degraded mode, and a restart still serves a sound (empty)
     state — no crash, no corruption *)
  let o =
    Chaosrun.oos_run ~hold:true ~engine:"si" ~wal_capacity_bytes:6_000
      ~ops:400 ()
  in
  check "typed Read_only raised" true (o.Chaosrun.read_only_errors > 0);
  check "degraded mode entered" true (o.Chaosrun.degraded <> None);
  checki "nothing committed" 0 o.Chaosrun.committed;
  check "restart serves the committed model" true o.Chaosrun.consistent

(* ---- out of space: crash after every prefix of a bounded-WAL run ---- *)

(* Emergency reclamation can fire inside an operation, after the page
   changed but before its record is appended. Crash after each prefix of
   a small insert/update workload: recovery must not diverge, and must
   serve exactly the committed values. [None] when it does. *)
let crash_prefix_run (module E : Mvcc.Engine.S) ~wal_capacity_bytes k =
  let db = Db.create ~buffer_pages:128 ~wal_capacity_bytes () in
  let eng = E.create db in
  let table = E.create_table eng ~name:"t" ~pk_col:0 () in
  let model = Hashtbl.create 64 in
  let attempt key n op =
    let txn = E.begin_txn eng in
    match op txn with
    | Ok () -> (
        match E.commit eng txn with
        | Ok () ->
            Hashtbl.replace model key n;
            true
        | Error _ -> false)
    | Error _ ->
        E.abort eng txn;
        false
  in
  (try
     for n = 1 to k do
       let key = 1 + (n mod 40) in
       let row = [| Mvcc.Value.Int key; Mvcc.Value.Int n |] in
       if not (attempt key n (fun txn -> E.insert eng txn table row)) then
         ignore (attempt key n (fun txn -> E.update eng txn table ~pk:key (fun _ -> row)))
     done
   with Db.Read_only _ -> ());
  Db.crash db;
  match E.recover eng with
  | exception e -> Some (Printexc.to_string e)
  | () ->
      let txn = E.begin_txn eng in
      let wrong =
        Hashtbl.fold
          (fun key n acc ->
            match E.read eng txn table ~pk:key with
            | Some r when Mvcc.Value.int r.(1) = n -> acc
            | _ -> key :: acc)
          model []
      in
      let rows = E.scan eng txn table (fun _ -> ()) in
      if wrong <> [] then
        Some (Printf.sprintf "%d keys lost their committed value" (List.length wrong))
      else if rows <> Hashtbl.length model then
        Some (Printf.sprintf "%d rows for %d committed keys" rows (Hashtbl.length model))
      else None

let test_crash_prefixes engine ~wal_capacity_bytes () =
  let _, m = Mvcc.Engine.resolve_exn engine in
  let prefixes = 300 in
  let failures =
    List.filter_map
      (fun k -> Option.map (fun msg -> (k, msg)) (crash_prefix_run m ~wal_capacity_bytes k))
      (List.init prefixes succ)
  in
  match failures with
  | [] -> ()
  | (k, msg) :: _ ->
      Alcotest.failf "%d/%d crash prefixes fail; first at k=%d: %s" (List.length failures)
        prefixes k msg

let suite =
  let modes =
    [
      ("sync", Commitpipe.Sync);
      ("group", Commitpipe.Group { delay = 0.005 });
      ("async", Commitpipe.Async { interval = 0.01; max_bytes = 1 lsl 14 });
    ]
  in
  let engines = [ "si"; "si-cv"; "sias"; "sias-v" ] in
  List.concat
    [
      [
        Alcotest.test_case "census covers the instrumented subsystems" `Quick
          test_census_coverage;
        Alcotest.test_case "wal: typed Out_of_space, checkpoint exemption"
          `Quick test_wal_capacity_typed;
        Alcotest.test_case "device: typed No_space on the write path" `Quick
          test_device_capacity_typed;
      ];
      (* schedules: every engine under sync; modes crossed on sias-v *)
      List.map
        (fun e ->
          Alcotest.test_case
            (Printf.sprintf "schedules: %s/sync" e)
            `Slow
            (test_explore e Commitpipe.Sync))
        engines;
      List.filter_map
        (fun (mn, m) ->
          if mn = "sync" then None
          else
            Some
              (Alcotest.test_case
                 (Printf.sprintf "schedules: sias-v/%s" mn)
                 `Slow (test_explore "sias-v" m)))
        modes;
      [
        Alcotest.test_case "schedules: si/standby failover" `Slow
          (test_explore_standby "si");
        Alcotest.test_case "schedules: sias-v/standby failover" `Slow
          (test_explore_standby "sias-v");
      ];
      (* satellite: nested-crash recovery idempotency, 4 engines x modes *)
      List.concat_map
        (fun e ->
          List.filter_map
            (fun (mn, m) ->
              if mn = "sync" then None
              else
                Some
                  (Alcotest.test_case
                     (Printf.sprintf "nested recovery: %s/%s" e mn)
                     `Slow (test_nested_recovery e m)))
            modes)
        engines;
      List.map
        (fun e ->
          Alcotest.test_case
            (Printf.sprintf "oos: %s reclamation keeps workload live" e)
            `Quick (test_oos_reclamation e))
        [ "si"; "sias-v" ];
      List.map
        (fun e ->
          Alcotest.test_case
            (Printf.sprintf "oos: %s futile reclamation degrades loudly" e)
            `Quick (test_oos_degraded e))
        [ "si"; "sias-v" ];
      [
        Alcotest.test_case "oos: capacity below one page image is refused"
          `Quick test_oos_hard_degraded;
      ];
      List.map
        (fun (e, wal_capacity_bytes) ->
          Alcotest.test_case
            (Printf.sprintf "oos: %s crash after every prefix recovers (%d B WAL)" e
               wal_capacity_bytes)
            `Quick
            (test_crash_prefixes e ~wal_capacity_bytes))
        (List.map (fun e -> (e, 20_000)) engines @ [ ("sias-v", 60_000) ]);
    ]
