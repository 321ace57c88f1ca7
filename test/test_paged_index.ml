(* Tests for the paged, WAL-logged B+Tree: model equivalence, crash
   recovery byte-exactness, the index crash points, and array-vs-paged
   engine equivalence. *)

module Pbt = Sias_index.Paged_btree
module Db = Mvcc.Db
module Walcodec = Mvcc.Walcodec
module Engine = Mvcc.Engine
module Value = Mvcc.Value
module Wal = Sias_wal.Wal
module Bufpool = Sias_storage.Bufpool
module Page = Sias_storage.Page
module Bgwriter = Sias_storage.Bgwriter
module Crashpoint = Sias_chaos.Crashpoint
module Rng = Sias_util.Rng

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

(* The paged tree needs a WAL-first logger, so the fixture is a whole
   database context rather than a bare pool. *)
let mk ?(buffer_pages = 256) () =
  let db = Db.create ~buffer_pages () in
  let rel = Db.alloc_rel db in
  (db, rel, Walcodec.make_index db ~rel)

let entries t =
  let acc = ref [] in
  Pbt.iter t (fun k p -> acc := (k, p) :: !acc);
  List.rev !acc

(* ---------------- the array suite's behaviors, on paged ---------------- *)

let test_insert_lookup () =
  let _, _, t = mk () in
  Pbt.insert t ~key:5 ~payload:50;
  Pbt.insert t ~key:3 ~payload:30;
  Pbt.insert t ~key:8 ~payload:80;
  check_list "lookup 5" [ 50 ] (Pbt.lookup t ~key:5);
  check_list "lookup 3" [ 30 ] (Pbt.lookup t ~key:3);
  check_list "missing" [] (Pbt.lookup t ~key:7);
  checki "count" 3 (Pbt.entry_count t)

let test_duplicates () =
  let _, _, t = mk () in
  Pbt.insert t ~key:5 ~payload:1;
  Pbt.insert t ~key:5 ~payload:2;
  Pbt.insert t ~key:5 ~payload:3;
  Pbt.insert t ~key:5 ~payload:2;
  check_list "all payloads" [ 1; 2; 3 ] (Pbt.lookup t ~key:5);
  checki "no duplicate pair" 3 (Pbt.entry_count t)

let test_delete () =
  let _, _, t = mk () in
  Pbt.insert t ~key:5 ~payload:1;
  Pbt.insert t ~key:5 ~payload:2;
  check "delete existing" true (Pbt.delete t ~key:5 ~payload:1);
  check "delete absent" false (Pbt.delete t ~key:5 ~payload:1);
  check_list "remaining" [ 2 ] (Pbt.lookup t ~key:5);
  check "mem" true (Pbt.mem t ~key:5 ~payload:2);
  check "not mem" false (Pbt.mem t ~key:5 ~payload:1)

let test_range () =
  let _, _, t = mk () in
  for k = 1 to 100 do
    Pbt.insert t ~key:k ~payload:(k * 10)
  done;
  let r = Pbt.range t ~lo:20 ~hi:25 in
  check_list "range keys" [ 20; 21; 22; 23; 24; 25 ] (List.map fst r);
  check_list "range payloads" [ 200; 210; 220; 230; 240; 250 ] (List.map snd r);
  check "empty range" true (Pbt.range t ~lo:200 ~hi:300 = []);
  check "inverted range" true (Pbt.range t ~lo:5 ~hi:1 = [])

let test_splits_and_height () =
  let _, _, t = mk () in
  let n = 5_000 in
  for k = 1 to n do
    Pbt.insert t ~key:k ~payload:k
  done;
  check "tree grew" true (Pbt.height t >= 2);
  check "splits happened" true ((Pbt.stats t).Pbt.splits > 0);
  let ok = ref true in
  for k = 1 to n do
    if Pbt.lookup t ~key:k <> [ k ] then ok := false
  done;
  check "all keys present" true !ok;
  checki "entry count" n (Pbt.entry_count t)

let test_random_order_inserts () =
  let _, _, t = mk () in
  let rng = Rng.create 17 in
  let keys = Array.init 3_000 (fun i -> i) in
  Rng.shuffle rng keys;
  Array.iter (fun k -> Pbt.insert t ~key:k ~payload:(k + 1)) keys;
  let ok = ref true in
  Array.iter (fun k -> if Pbt.lookup t ~key:k <> [ k + 1 ] then ok := false) keys;
  check "random insert order" true !ok;
  let prev = ref min_int in
  let sorted = ref true in
  Pbt.iter t (fun k _ ->
      if k < !prev then sorted := false;
      prev := k);
  check "iter sorted" true !sorted

let test_survives_buffer_pressure () =
  (* a pool smaller than the tree forces node pages through eviction;
     evicting dirty WAL-stamped index pages exercises the flush path *)
  let db, _, t = mk ~buffer_pages:16 () in
  for k = 1 to 4_000 do
    Pbt.insert t ~key:k ~payload:k
  done;
  let st = Bufpool.stats db.Db.pool in
  check "evictions happened" true (st.Bufpool.evictions > 0);
  let ok = ref true in
  for k = 1 to 4_000 do
    if Pbt.lookup t ~key:k <> [ k ] then ok := false
  done;
  check "correct under eviction" true !ok

let test_merge_on_emptied_leaf () =
  let _, _, t = mk () in
  for k = 1 to 900 do
    Pbt.insert t ~key:k ~payload:k
  done;
  check "tree split first" true ((Pbt.stats t).Pbt.splits > 0);
  for k = 1 to 900 do
    ignore (Pbt.delete t ~key:k ~payload:k)
  done;
  checki "emptied" 0 (Pbt.entry_count t);
  check "merges happened" true ((Pbt.stats t).Pbt.merges > 0);
  (* the tree stays usable after draining *)
  Pbt.insert t ~key:7 ~payload:70;
  check_list "reusable after drain" [ 70 ] (Pbt.lookup t ~key:7)

(* ---------------- crash recovery ---------------- *)

let capture db rel n =
  List.init n (fun block ->
      Bufpool.with_page_ro db.Db.pool ~rel ~block (fun p ->
          Bytes.copy (Page.to_bytes p)))

let check_byte_exact name before after =
  List.iteri
    (fun b (x, y) ->
      check (Printf.sprintf "%s: block %d byte-exact" name b) true
        (Bytes.equal x y))
    (List.combine before after)

(* Flush the WAL, crash, redo: every index page must come back with
   exactly the bytes the normal path produced, and the restored handle
   must serve the same entries. *)
let test_recovery_byte_exact () =
  let db, rel, t = mk () in
  let rng = Rng.create 23 in
  for _ = 1 to 2_500 do
    let k = Rng.int rng 1_000 and p = Rng.int rng 8 in
    if Rng.int rng 4 = 0 then ignore (Pbt.delete t ~key:k ~payload:p)
    else Pbt.insert t ~key:k ~payload:p
  done;
  Wal.flush db.Db.wal ~sync:true;
  let n = Pbt.node_count t + 2 in
  let before = capture db rel n in
  let before_entries = entries t in
  Db.crash db;
  Walcodec.redo db ~since_lsn:0;
  check_byte_exact "redo" before (capture db rel n);
  let t' = Walcodec.restore_index db ~rel in
  checki "entry count restored" (List.length before_entries) (Pbt.entry_count t');
  check "entries restored" true (entries t' = before_entries)

(* A checkpoint mid-life resets the full-page-write epoch and flushes
   the index pages; the next split must FPW the surviving pages so a
   crash before the dirty pages hit the device still replays exact. *)
let test_checkpoint_then_split () =
  let db, rel, t = mk () in
  for k = 1 to 290 do
    Pbt.insert t ~key:(2 * k) ~payload:k
  done;
  Bgwriter.checkpoint_now db.Db.bgwriter;
  for k = 1 to 40 do
    Pbt.insert t ~key:(2 * k + 1) ~payload:k
  done;
  check "post-checkpoint split" true ((Pbt.stats t).Pbt.splits > 0);
  Wal.flush db.Db.wal ~sync:true;
  let n = Pbt.node_count t + 2 in
  let before = capture db rel n in
  Db.crash db;
  Walcodec.redo db ~since_lsn:0;
  check_byte_exact "checkpointed split" before (capture db rel n);
  let t' = Walcodec.restore_index db ~rel in
  checki "entries" 330 (Pbt.entry_count t')

(* Arm each index crash point in turn: the batch in flight when the
   "power" fails was never WAL-flushed, so recovery must serve exactly
   the pre-batch (flushed) tree. *)
let test_crash_points () =
  List.iter
    (fun point ->
      Crashpoint.disarm ();
      let db, rel, t = mk () in
      for k = 1 to 200 do
        Pbt.insert t ~key:k ~payload:k
      done;
      Wal.flush db.Db.wal ~sync:true;
      Crashpoint.arm ~point ();
      let crashed = ref false in
      let rec drive k =
        if k <= 2_000 && not !crashed then
          match Pbt.insert t ~key:k ~payload:k with
          | () -> drive (k + 1)
          | exception Crashpoint.Crash _ -> crashed := true
      in
      drive 201;
      Crashpoint.disarm ();
      check (point ^ " reached") true !crashed;
      Db.crash db;
      Walcodec.redo db ~since_lsn:0;
      let t' = Walcodec.restore_index db ~rel in
      (* only keys 1..200 were behind the flushed WAL prefix; everything
         after — including the half-applied batch — must be gone *)
      checki (point ^ ": flushed prefix entries") 200 (Pbt.entry_count t');
      let ok = ref true in
      for k = 1 to 200 do
        if Pbt.lookup t' ~key:k <> [ k ] then ok := false
      done;
      check (point ^ ": all flushed keys present") true !ok)
    [ "index.fpw.pre"; "index.wal.pre-apply"; "index.split.mid" ]

(* ---------------- QCheck: model + crash recovery ---------------- *)

type op =
  | Ins of int * int
  | Del of int * int
  | Move of int * int  (** update: move (k, p) to payload p + 1 *)
  | Drop of int * int  (** delete every entry with lo <= key <= hi *)
  | Lookup of int
  | Mem of int * int
  | Range of int * int

let pp_op = function
  | Ins (k, p) -> Printf.sprintf "Ins(%d,%d)" k p
  | Del (k, p) -> Printf.sprintf "Del(%d,%d)" k p
  | Move (k, p) -> Printf.sprintf "Move(%d,%d)" k p
  | Drop (lo, hi) -> Printf.sprintf "Drop(%d..%d)" lo hi
  | Lookup k -> Printf.sprintf "Lookup %d" k
  | Mem (k, p) -> Printf.sprintf "Mem(%d,%d)" k p
  | Range (lo, hi) -> Printf.sprintf "Range(%d..%d)" lo hi

(* Keys in [0, 1000), payloads in [0, 4): up to 4000 pairs, so a few
   hundred inserts already split the root leaf. *)
let gen_op =
  QCheck.Gen.(
    let key = int_bound 999 and pay = int_bound 3 in
    let span = map2 (fun lo w -> (lo, lo + w)) (int_range (-20) 999) (int_bound 400) in
    frequency
      [
        (6, map2 (fun k p -> Ins (k, p)) key pay);
        (2, map2 (fun k p -> Del (k, p)) key pay);
        (2, map2 (fun k p -> Move (k, p)) key pay);
        (1, map (fun (lo, hi) -> Drop (lo, hi)) span);
        (2, map (fun k -> Lookup k) key);
        (2, map2 (fun k p -> Mem (k, p)) key pay);
        (2, map (fun (lo, hi) -> Range (lo, hi)) span);
      ])

(* A bulk of inserts, mostly enough to make the tree two or more levels
   high, then a mixed tail whose range deletes empty whole leaves
   (merges) and can drain a two-leaf root (root collapse). *)
let gen_history =
  QCheck.Gen.(
    map2 ( @ )
      (list_size (int_range 0 1500) (map2 (fun k p -> Ins (k, p)) (int_bound 999) (int_bound 3)))
      (list_size (int_range 50 400) gen_op))

module Pairs = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type history_stats = { max_height : int; merges : int; collapses : int }

(* Run [ops] against the tree and a set model. Every probe is checked
   against the model as it runs; at the end the whole content, a set of
   probes and the structure are checked before and after a crash and
   redo. Returns [None] on agreement, [Some why] otherwise. *)
let run_history ?(buffer_pages = 256) ops =
  let db, rel, t = mk ~buffer_pages () in
  let model = ref Pairs.empty in
  let max_height = ref 1 and collapses = ref 0 in
  let failure = ref None in
  let expect what ok = if (not ok) && !failure = None then failure := Some what in
  let in_range lo hi = Pairs.filter (fun (k, _) -> k >= lo && k <= hi) !model |> Pairs.elements in
  let remove k p =
    let h = Pbt.height t in
    let present = Pairs.mem (k, p) !model in
    expect (Printf.sprintf "delete (%d,%d) result" k p) (Pbt.delete t ~key:k ~payload:p = present);
    model := Pairs.remove (k, p) !model;
    if Pbt.height t < h then incr collapses
  in
  List.iter
    (fun op ->
      (match op with
      | Ins (k, p) ->
          Pbt.insert t ~key:k ~payload:p;
          model := Pairs.add (k, p) !model
      | Del (k, p) -> remove k p
      | Move (k, p) ->
          if Pairs.mem (k, p) !model then begin
            remove k p;
            Pbt.insert t ~key:k ~payload:(p + 1);
            model := Pairs.add (k, p + 1) !model
          end
      | Drop (lo, hi) -> List.iter (fun (k, p) -> remove k p) (in_range lo hi)
      | Lookup k -> expect (pp_op op) (Pbt.lookup t ~key:k = List.map snd (in_range k k))
      | Mem (k, p) -> expect (pp_op op) (Pbt.mem t ~key:k ~payload:p = Pairs.mem (k, p) !model)
      | Range (lo, hi) -> expect (pp_op op) (Pbt.range t ~lo ~hi = in_range lo hi));
      max_height := max !max_height (Pbt.height t))
    ops;
  let verify name t =
    let expected = Pairs.elements !model in
    expect (name ^ ": entries") (entries t = expected);
    expect (name ^ ": entry_count") (Pbt.entry_count t = List.length expected);
    List.iter
      (fun (lo, hi) ->
        expect
          (Printf.sprintf "%s: range %d..%d" name lo hi)
          (Pbt.range t ~lo ~hi = in_range lo hi))
      [ (10, 60); (-5, 3); (500, 500); (990, 2000); (min_int, max_int) ];
    Pairs.iter
      (fun (k, p) ->
        expect (Printf.sprintf "%s: mem (%d,%d)" name k p) (Pbt.mem t ~key:k ~payload:p))
      !model;
    match Pbt.check_invariants t with
    | () -> ()
    | exception Failure why -> expect (name ^ ": " ^ why) false
  in
  verify "live" t;
  (* crash, replay, restore: same answers from the replayed pages *)
  Wal.flush db.Db.wal ~sync:true;
  Db.crash db;
  Walcodec.redo db ~since_lsn:0;
  verify "recovered" (Walcodec.restore_index db ~rel);
  ( !failure,
    { max_height = !max_height; merges = (Pbt.stats t).Pbt.merges; collapses = !collapses } )

let qcheck_paged_model =
  QCheck.Test.make ~name:"paged btree equals sorted model across a crash" ~count:25
    (QCheck.make ~print:(QCheck.Print.list pp_op) ~shrink:QCheck.Shrink.list gen_history)
    (fun ops ->
      match run_history ops with
      | None, _ -> true
      | Some why, _ -> QCheck.Test.fail_report why)

(* The shapes the property is meant to reach, reached on purpose: two
   levels, leaf merges, and a root that collapses back onto a leaf —
   under a pool small enough that nodes are evicted and read back. *)
let test_model_shapes () =
  let ins lo hi = List.init (hi - lo + 1) (fun i -> Ins (lo + i, 0)) in
  let ops =
    ins 0 449
    @ [ Range (100, 320); Drop (300, 449); Lookup 299; Mem (300, 0); Range (250, 400) ]
    @ ins 1000 1999
    @ [ Drop (1000, 1999); Range (0, 5000); Drop (0, 299); Ins (7, 1); Lookup 7 ]
  in
  List.iter
    (fun buffer_pages ->
      let failure, st = run_history ~buffer_pages ops in
      (match failure with Some why -> Alcotest.fail why | None -> ());
      check "height >= 2 reached" true (st.max_height >= 2);
      check "leaves merged" true (st.merges > 0);
      check "root collapsed" true (st.collapses > 0))
    [ 256; 8 ]

(* ---------------- array-vs-paged engine equivalence ---------------- *)

(* The same deterministic workload through the same engine on the two
   index implementations must produce identical op results and identical
   reads, secondary lookups, pk ranges and scan counts — before and
   after a crash+recover on both sides. *)
let engine_equiv key () =
  let _, (module E : Engine.S) = Engine.resolve_exn key in
  let mk_side index =
    let db = Db.create ~buffer_pages:256 ~index () in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 ~secondary:[ 1 ] () in
    (db, eng, table)
  in
  let dba, ea, ta = mk_side `Array in
  let dbp, ep, tp = mk_side `Paged in
  let row k g = [| Value.Int k; Value.Int g; Value.Str "x" |] in
  let one eng table op =
    let txn = E.begin_txn eng in
    let r =
      match op with
      | `Insert (k, g) -> E.insert eng txn table (row k g)
      | `Update (k, g) ->
          E.update eng txn table ~pk:k (fun r ->
              let r = Array.copy r in
              r.(1) <- Value.Int g;
              r)
      | `Delete k -> E.delete eng txn table ~pk:k
    in
    (match r with
    | Ok () -> E.commit eng txn |> Result.get_ok
    | Error _ -> E.abort eng txn);
    Result.is_ok r
  in
  let state = ref 3 in
  let lcg bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for _ = 1 to 400 do
    let k = 1 + lcg 60 and g = lcg 7 in
    let op =
      match lcg 10 with
      | 0 | 1 | 2 | 3 -> `Insert (k, g)
      | 4 | 5 | 6 -> `Update (k, g)
      | _ -> `Delete k
    in
    let ra = one ea ta op and rp = one ep tp op in
    check "op outcome agrees" true (ra = rp)
  done;
  let snapshot eng table =
    let txn = E.begin_txn eng in
    let reads = List.init 60 (fun i -> E.read eng txn table ~pk:(i + 1)) in
    let groups =
      List.init 7 (fun g ->
          E.lookup eng txn table ~col:1 ~key:g |> List.sort compare)
    in
    let rp = E.range_pk eng txn table ~lo:5 ~hi:40 in
    let visible = E.scan eng txn table (fun _ -> ()) in
    E.commit eng txn |> Result.get_ok;
    (reads, groups, rp, visible)
  in
  let sa = snapshot ea ta and sp = snapshot ep tp in
  check "pre-crash state agrees" true (sa = sp);
  Db.crash dba;
  E.recover ea;
  Db.crash dbp;
  E.recover ep;
  let sa' = snapshot ea ta and sp' = snapshot ep tp in
  check "post-recovery state agrees" true (sa' = sp');
  check "recovery preserved the committed state" true (sa = sa')

let suite =
  [
    Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
    Alcotest.test_case "duplicate keys" `Quick test_duplicates;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "range scan" `Quick test_range;
    Alcotest.test_case "splits and height" `Quick test_splits_and_height;
    Alcotest.test_case "random insert order + sorted iter" `Quick
      test_random_order_inserts;
    Alcotest.test_case "survives buffer pressure" `Quick
      test_survives_buffer_pressure;
    Alcotest.test_case "merge on emptied leaf" `Quick test_merge_on_emptied_leaf;
    Alcotest.test_case "crash recovery is byte-exact" `Quick
      test_recovery_byte_exact;
    Alcotest.test_case "checkpoint then split recovers" `Quick
      test_checkpoint_then_split;
    Alcotest.test_case "index crash points recover to flushed prefix" `Quick
      test_crash_points;
    QCheck_alcotest.to_alcotest qcheck_paged_model;
    Alcotest.test_case "model reaches height 2, merges and root collapse" `Quick
      test_model_shapes;
    Alcotest.test_case "si: array vs paged equivalence" `Quick (engine_equiv "si");
    Alcotest.test_case "si-cv: array vs paged equivalence" `Quick
      (engine_equiv "si-cv");
    Alcotest.test_case "sias: array vs paged equivalence" `Quick
      (engine_equiv "sias");
    Alcotest.test_case "sias-v: array vs paged equivalence" `Quick
      (engine_equiv "sias-v");
  ]
