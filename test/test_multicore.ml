(* Multicore tests: per-domain RNG streams, monotonic timing, NaN-safe
   percentiles, the lock-free CLOG, bus domain ownership, and the sharded
   TPC-C runner ([Experiments.run_shards]) with the SI checker as
   oracle. *)

open Sias_util
module Bus = Sias_obs.Bus
module Txn = Sias_txn.Txn
module W = Tpcc.Tpcc_workload
module E = Harness.Experiments

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* RNG streams *)

let test_stream_zero_is_create () =
  let a = Rng.create 42 and b = Rng.stream ~seed:42 ~stream:0 in
  for _ = 1 to 200 do
    checki "stream 0 = create" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_streams_differ () =
  let n = 16 in
  let streams = Array.init n (fun i -> Rng.stream ~seed:7 ~stream:i) in
  Rng.assert_independent streams;
  (* distinct fingerprints *)
  let fps =
    Array.to_list streams |> List.map Rng.fingerprint |> List.sort_uniq compare
  in
  checki "all fingerprints distinct" n (List.length fps);
  (* pairwise distinct output prefixes *)
  let prefixes =
    Array.map (fun s -> List.init 8 (fun _ -> Rng.int64 s)) streams
  in
  let uniq = Array.to_list prefixes |> List.sort_uniq compare in
  checki "all output prefixes distinct" n (List.length uniq)

let test_stream_determinism () =
  let a = Rng.stream ~seed:3 ~stream:5 and b = Rng.stream ~seed:3 ~stream:5 in
  for _ = 1 to 100 do
    checki "same (seed,stream) same output" (Rng.int a 9999) (Rng.int b 9999)
  done

let test_assert_independent_fails_loudly () =
  let dup = [| Rng.stream ~seed:1 ~stream:3; Rng.stream ~seed:1 ~stream:3 |] in
  match Rng.assert_independent dup with
  | () -> Alcotest.fail "duplicate streams must be rejected"
  | exception Failure msg ->
      check "names the colliding streams" true
        (String.length msg > 0
        && String.length (String.trim msg) > 20)

let test_streams_parallel_equal_sequential () =
  (* each domain draws from its own stream; results must equal the
     sequential draws from identically constructed streams *)
  let domains = 4 in
  let expected =
    Array.init domains (fun d ->
        let s = Rng.stream ~seed:99 ~stream:d in
        List.init 1000 (fun _ -> Rng.int64 s))
  in
  let got =
    Domainpool.run ~domains (fun d ->
        let s = Rng.stream ~seed:99 ~stream:d in
        List.init 1000 (fun _ -> Rng.int64 s))
  in
  for d = 0 to domains - 1 do
    check "parallel draws = sequential draws" true (expected.(d) = got.(d))
  done

(* ------------------------------------------------------------------ *)
(* Monotime (satellite: bench timing must be monotonic) *)

let test_monotime_monotone () =
  let prev = ref (Monotime.now ()) in
  for _ = 1 to 10_000 do
    let t = Monotime.now () in
    check "monotonic clock never goes backwards" true (t >= !prev);
    prev := t
  done;
  let t0 = Monotime.now () in
  check "elapsed_since non-negative" true (Monotime.elapsed_since t0 >= 0.0)

(* ------------------------------------------------------------------ *)
(* Stats.Sample percentiles: Float.compare, NaN-safe (satellite) *)

let reference_percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let qcheck_percentile_matches_reference =
  QCheck.Test.make ~name:"sample percentile matches Float.compare reference"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 60) (float_range (-1e6) 1e6))
        (pair (float_range 0.0 100.0) small_nat))
    (fun (xs, (p, nan_every)) ->
      (* inject NaNs deterministically to exercise the total order *)
      let xs =
        List.mapi (fun i x -> if nan_every > 0 && i mod (nan_every + 2) = 0 then Float.nan else x) xs
      in
      let s = Stats.Sample.create () in
      List.iter (Stats.Sample.add s) xs;
      let got = Stats.Sample.percentile s p in
      let want = reference_percentile xs p in
      (* NaN-aware equality *)
      (Float.is_nan got && Float.is_nan want) || got = want)

let qcheck_percentile_nan_safe =
  QCheck.Test.make ~name:"percentile of NaN-free sample is never NaN" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 60) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.Sample.create () in
      List.iter (Stats.Sample.add s) xs;
      (not (Float.is_nan (Stats.Sample.percentile s 50.0)))
      && not (Float.is_nan (Stats.Sample.percentile s 99.0)))

(* ------------------------------------------------------------------ *)
(* CLOG: model equivalence, image format, lock-free readers *)

let qcheck_clog_matches_model =
  QCheck.Test.make ~name:"clog status matches model; image length follows legacy growth"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 80) (pair (int_range 1 5000) bool))
    (fun ops ->
      let mgr = Txn.create_mgr () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (xid, committed) ->
          Txn.mark_recovered mgr ~xid ~committed;
          Hashtbl.replace model xid committed)
        ops;
      let statuses_ok =
        Hashtbl.fold
          (fun xid committed acc ->
            acc
            && Txn.status mgr xid
               = (if committed then Txn.Committed else Txn.Aborted))
          model true
      in
      (* legacy growth law: start 256 bytes, grow to max (2*len) (byte+1) *)
      let expected_len =
        List.fold_left
          (fun len (xid, _) ->
            let byte = xid lsr 2 in
            if byte >= len then Stdlib.max (2 * len) (byte + 1) else len)
          256 ops
      in
      let _, image = Txn.clog_image mgr in
      let roundtrip_ok =
        let mgr2 = Txn.create_mgr () in
        Txn.clog_restore mgr2 ~next_xid:(Txn.last_xid mgr + 1) ~image;
        Hashtbl.fold
          (fun xid committed acc ->
            acc
            && Txn.status mgr2 xid
               = (if committed then Txn.Committed else Txn.Aborted))
          model true
      in
      statuses_ok && String.length image = expected_len && roundtrip_ok)

let test_clog_lockfree_readers () =
  (* One writer domain commits xids in ascending order; reader domains
     poll concurrently. Once a reader observes Committed for an xid, it
     must stay Committed (the log is monotone); readers must never crash
     or see a code outside the status type. *)
  let mgr = Txn.create_mgr () in
  let total = 20_000 in
  let highest_committed = Atomic.make 0 in
  let stop = Atomic.make false in
  let reader () =
    let violations = ref 0 in
    let seen_committed = Hashtbl.create 256 in
    let iter = ref 0 in
    while not (Atomic.get stop) do
      let hi = Atomic.get highest_committed in
      if hi > 0 then begin
        (* revisit a spread of xids, including ones seen committed *)
        for k = 1 to 64 do
          incr iter;
          let xid = 1 + (Hashtbl.hash (hi, k, !iter) mod hi) in
          match Txn.status mgr xid with
          | Txn.Committed -> Hashtbl.replace seen_committed xid ()
          | Txn.In_progress | Txn.Aborted ->
              if Hashtbl.mem seen_committed xid then incr violations
        done
      end
    done;
    !violations
  in
  let readers = Array.init 2 (fun _ -> Domain.spawn reader) in
  for xid = 1 to total do
    Txn.mark_recovered mgr ~xid ~committed:true;
    Atomic.set highest_committed xid
  done;
  Atomic.set stop true;
  let violations = Array.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  checki "committed verdicts are stable under concurrent readers" 0 violations;
  (* final convergence *)
  check "all committed" true (Txn.is_committed mgr total && Txn.is_committed mgr 1)

(* ------------------------------------------------------------------ *)
(* Bus domain ownership *)

let test_bus_owner_assertion () =
  let bus = Bus.create () in
  Bus.subscribe bus (fun _ -> ());
  let failed =
    Domain.join
      (Domain.spawn (fun () ->
           match Bus.publish bus (Bus.Txn_commit { xid = 1 }) with
           | () -> false
           | exception Failure _ -> true))
  in
  check "cross-domain publish fails loudly" true failed

(* ------------------------------------------------------------------ *)
(* Sharded TPC-C with the checker as oracle *)

let quick_setup ?(seed = 42) engine =
  {
    (E.default_setup ~engine ~warehouses:1) with
    E.scale_div = 300;
    duration_s = 8.0;
    buffer_pages = 512;
    seed;
    check_si = true;
  }

let checker_clean o = o.E.checker <> None && E.checker_failures o = 0

(* Run [f] with file descriptor 2 redirected to a temporary file;
   return its result and everything written to stderr meanwhile. *)
let capture_stderr f =
  let path = Filename.temp_file "sias_stderr" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (r, text)

let progress_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.length l > 5 && String.sub l 0 5 = "[sim ")

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --stats-interval: each shard of a 2-domain run labels its progress
   lines, and both shards print; a 1-domain run keeps the unlabelled
   format. *)
let test_shard_progress_lines () =
  let setup = { (quick_setup "si") with E.stats_interval_s = Some 2.0; check_si = false } in
  let _, two = capture_stderr (fun () -> E.run_shards ~domains:2 setup) in
  let lines = progress_lines two in
  List.iter
    (fun d ->
      check
        (Printf.sprintf "shard %d printed progress" d)
        true
        (List.exists (fun l -> contains l (Printf.sprintf "s] shard %d commits=" d)) lines))
    [ 0; 1 ];
  check "every 2-domain line is labelled" true
    (lines <> [] && List.for_all (fun l -> contains l "s] shard ") lines);
  let _, one = capture_stderr (fun () -> E.run_shards ~domains:1 setup) in
  let lines = progress_lines one in
  check "1-domain lines unlabelled" true
    (lines <> [] && List.for_all (fun l -> contains l "s] commits=") lines)

let test_multicore_tpcc_smoke () =
  let outs = E.run_shards ~domains:2 (quick_setup ~seed:7 "sias-v") in
  checki "two shards" 2 (Array.length outs);
  check "checker clean on every shard" true (Array.for_all checker_clean outs);
  check "every shard committed work" true
    (Array.for_all (fun o -> o.E.result.W.total_committed > 0) outs);
  let a = E.aggregate outs in
  checki "aggregate clean" 0 a.E.violations;
  check "aggregate notpm sums shards" true
    (let sum =
       Array.fold_left (fun acc o -> acc +. o.E.result.W.notpm) 0.0 outs
     in
     abs_float (sum -. a.E.agg_notpm) < 1e-6);
  check "wall window is the slowest shard's" true
    (a.E.wall_s > 0.0
    && Array.for_all (fun o -> o.E.run_wall_s <= a.E.wall_s) outs)

let test_multicore_tpcc_deterministic_per_shard () =
  let a = E.run_shards ~domains:2 (quick_setup ~seed:21 "si") in
  let b = E.run_shards ~domains:2 (quick_setup ~seed:21 "si") in
  Array.iteri
    (fun i sa ->
      let sb = b.(i) in
      checki "same committed" sa.E.result.W.total_committed
        sb.E.result.W.total_committed;
      checki "same aborted" sa.E.result.W.total_aborted
        sb.E.result.W.total_aborted;
      Alcotest.(check (float 1e-9))
        "same notpm" sa.E.result.W.notpm sb.E.result.W.notpm)
    a;
  (* the two shards run distinct seed-derived streams, so their shard
     results should not be mirror images of each other *)
  check "shards run distinct workload streams" true
    (a.(0).E.result.W.total_committed <> a.(1).E.result.W.total_committed
    || a.(0).E.result.W.notpm <> a.(1).E.result.W.notpm)

(* Shard 0 keeps the seed: its report is the 1-domain report, byte for
   byte, whatever runs beside it. *)
let render o =
  Format.asprintf "%a@.%a" E.pp_output_summary o W.pp_result o.E.result

let test_shard0_identity engine () =
  let setup = quick_setup engine in
  let single = E.run_tpcc setup in
  let sharded = E.run_shards ~domains:2 setup in
  Alcotest.(check string)
    "shard 0 renders the 1-domain report" (render single) (render sharded.(0));
  check "shard 1 runs a different workload" true
    (render sharded.(1) <> render sharded.(0))

(* Flags the old multi-domain path rejected compose now: every shard
   builds its database from the full setup, and [took_effect] checks the
   flag reached it. *)
let test_flag_composes name f ~took_effect () =
  let outs = E.run_shards ~domains:2 (f (quick_setup "sias-v")) in
  Array.iteri
    (fun d o ->
      check (Printf.sprintf "%s: shard %d checker clean" name d) true
        (checker_clean o);
      check (Printf.sprintf "%s: shard %d committed work" name d) true
        (o.E.result.W.total_committed > 0);
      check (Printf.sprintf "%s: shard %d took the flag" name d) true
        (took_effect o))
    outs

let device_counter o name =
  Option.value ~default:0.0 (List.assoc_opt name o.E.device_info)

(* A small JSON recognizer (RFC 8259 grammar, no value construction),
   enough to assert that an artifact parses. *)
let json_parses text =
  let n = String.length text and i = ref 0 in
  let peek () = if !i < n then text.[!i] else '\000' in
  let fail () = raise Exit in
  let expect c = if peek () = c then incr i else fail () in
  let rec ws () =
    match peek () with ' ' | '\n' | '\r' | '\t' -> incr i; ws () | _ -> ()
  in
  let literal w =
    if !i + String.length w <= n && String.sub text !i (String.length w) = w
    then i := !i + String.length w
    else fail ()
  in
  let string_ () =
    expect '"';
    while peek () <> '"' do
      if !i >= n || Char.code (peek ()) < 0x20 then fail ();
      if peek () = '\\' then incr i;
      incr i
    done;
    incr i
  in
  let number () =
    let start = !i in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr i
    done;
    if Float.of_string_opt (String.sub text start (!i - start)) = None then fail ()
  in
  let rec value () =
    ws ();
    (match peek () with
    | '{' -> members '}' (fun () -> string_ (); ws (); expect ':'; value ())
    | '[' -> members ']' value
    | '"' -> string_ ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | _ -> number ());
    ws ()
  and members close item =
    incr i;
    ws ();
    if peek () = close then incr i
    else begin
      let rec loop () =
        ws ();
        item ();
        ws ();
        if peek () = ',' then (incr i; loop ()) else expect close
      in
      loop ()
    end
  in
  match value () with () -> !i = n | exception Exit -> false

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_per_shard_artifacts () =
  let dir = Filename.temp_dir "sias_shards" "" in
  let metrics = Filename.concat dir "m.prom"
  and trace = Filename.concat dir "t.json" in
  let setup =
    { (quick_setup "sias") with E.metrics_out = Some metrics; trace_out = Some trace }
  in
  ignore (E.run_shards ~domains:2 setup);
  check "no unsuffixed artifact" false
    (Sys.file_exists metrics || Sys.file_exists trace);
  let written = Sys.readdir dir in
  checki "two artifacts per shard" 4 (Array.length written);
  for d = 0 to 1 do
    let prom = Filename.concat dir (Printf.sprintf "m.shard%d.prom" d)
    and json = Filename.concat dir (Printf.sprintf "t.shard%d.json" d) in
    let text = read_file json in
    check (Printf.sprintf "shard %d trace parses as JSON" d) true
      (json_parses text);
    check (Printf.sprintf "shard %d trace has traceEvents" d) true
      (contains text "\"traceEvents\"");
    check
      (Printf.sprintf "shard %d metrics carry the device write counter" d)
      true
      (List.exists
         (fun l ->
           String.starts_with
             ~prefix:"sias_device_bytes_total{device=\"data-ssd\",op=\"write\"}" l)
         (String.split_on_char '\n' (read_file prom)))
  done;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) written;
  Sys.rmdir dir

let qcheck_multicore_torture =
  QCheck.Test.make ~name:"multicore tpcc: checker stays clean across configs"
    ~count:4
    QCheck.(pair (int_range 1 3) (int_range 0 1000))
    (fun (domains, seed) ->
      let engine = List.nth [ "si"; "sias"; "sias-v" ] (seed mod 3) in
      let setup = { (quick_setup ~seed engine) with E.duration_s = 4.0 } in
      let outs = E.run_shards ~domains setup in
      Array.length outs = domains && Array.for_all checker_clean outs)

let suite =
  [
    Alcotest.test_case "rng: stream 0 equals create" `Quick test_stream_zero_is_create;
    Alcotest.test_case "rng: streams independent" `Quick test_streams_differ;
    Alcotest.test_case "rng: stream determinism" `Quick test_stream_determinism;
    Alcotest.test_case "rng: shared stream fails loudly" `Quick
      test_assert_independent_fails_loudly;
    Alcotest.test_case "rng: parallel draws deterministic" `Quick
      test_streams_parallel_equal_sequential;
    Alcotest.test_case "monotime: non-decreasing" `Quick test_monotime_monotone;
    QCheck_alcotest.to_alcotest qcheck_percentile_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_percentile_nan_safe;
    QCheck_alcotest.to_alcotest qcheck_clog_matches_model;
    Alcotest.test_case "clog: lock-free readers see monotone log" `Quick
      test_clog_lockfree_readers;
    Alcotest.test_case "bus: owner-domain assertion" `Quick test_bus_owner_assertion;
    Alcotest.test_case "tpcc: 2-domain smoke, checker clean" `Slow
      test_multicore_tpcc_smoke;
    Alcotest.test_case "tpcc: per-shard determinism" `Slow
      test_multicore_tpcc_deterministic_per_shard;
    Alcotest.test_case "tpcc: shard 0 = 1-domain run (si)" `Slow
      (test_shard0_identity "si");
    Alcotest.test_case "tpcc: shard 0 = 1-domain run (sias-v)" `Slow
      (test_shard0_identity "sias-v");
    Alcotest.test_case "tpcc: 2 domains with --index paged" `Slow
      (test_flag_composes "paged"
         (fun s ->
           { s with E.index = "paged"; flush = E.T1; measure_index_io = true })
         ~took_effect:(fun o ->
           (* under T1 the bgwriter trickles paged-index pages out *)
           match o.E.index_io with
           | Some io -> io.E.ix_flush_count > 0
           | None -> false));
    Alcotest.test_case "tpcc: 2 domains with --faults" `Slow
      (test_flag_composes "faults"
         (fun s -> { s with E.fault_seed = Some 3 })
         ~took_effect:(fun o -> device_counter o "fault_torn_writes" > 0.0));
    Alcotest.test_case "tpcc: 2 domains with --repl remote-flush" `Slow
      (test_flag_composes "repl"
         (fun s -> { s with E.repl_mode = Some Sias_repl.Repl.Remote_flush })
         ~took_effect:(fun o ->
           match o.E.repl_stats with
           | Some rs -> rs.Sias_repl.Repl.installed_records > 0
           | None -> false));
    Alcotest.test_case "tpcc: per-shard metrics and trace artifacts" `Slow
      test_per_shard_artifacts;
    Alcotest.test_case "tpcc: per-shard progress lines" `Slow test_shard_progress_lines;
    QCheck_alcotest.to_alcotest qcheck_multicore_torture;
  ]
