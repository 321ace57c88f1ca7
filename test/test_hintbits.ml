(* The hint-bit fast path and the hot-path data structures.

   Three properties:
   - the GC horizon maintained incrementally by the transaction manager
     always equals a fold over the active snapshots (the oracle the old
     implementation computed on every call);
   - visibility through the hint-bit fast path (what every engine read,
     lookup and scan now uses) agrees with the retained slow-path
     predicate on randomized transactional histories, for all four
     engines, including under async commit where the durability gate
     delays hint writes;
   - a crash can never leave a durable committed hint for a transaction
     whose commit record was lost with the unflushed WAL. *)

module Db = Mvcc.Db
module Engine = Mvcc.Engine
module Value = Mvcc.Value
module Tuple = Mvcc.Tuple
module Visibility = Mvcc.Visibility
module Txn = Sias_txn.Txn
module Snapshot = Sias_txn.Snapshot
module Heapfile = Sias_storage.Heapfile
module Bufpool = Sias_storage.Bufpool
module Wal = Sias_wal.Wal
module Commitpipe = Sias_wal.Commitpipe

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- horizon: incremental min vs fold-based oracle ---- *)

let qcheck_horizon =
  QCheck.Test.make ~name:"horizon equals fold over active snapshots" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 80) (int_bound 3))
    (fun ops ->
      let mgr = Txn.create_mgr () in
      let active = ref [] in
      let oracle () =
        (* what the old implementation computed on every call *)
        match !active with
        | [] -> Txn.last_xid mgr + 1
        | ts ->
            List.fold_left
              (fun acc t -> Stdlib.min acc (Snapshot.xmin t.Txn.snapshot))
              max_int ts
      in
      List.iter
        (fun op ->
          (match (op, !active) with
          | 0, _ | _, [] -> active := Txn.begin_txn mgr :: !active
          | 1, t :: rest ->
              Txn.commit mgr t;
              active := rest
          | _, t :: rest ->
              (* finish a random non-head transaction too: exercises
                 multiset removal away from the minimum *)
              let t, rest =
                if op = 3 && rest <> [] then (List.hd rest, t :: List.tl rest)
                else (t, rest)
              in
              Txn.abort mgr t;
              active := rest);
          if Txn.horizon mgr <> oracle () then
            QCheck.Test.fail_reportf "horizon %d <> oracle %d (actives %d)"
              (Txn.horizon mgr) (oracle ()) (List.length !active))
        ops;
      true)

(* ---- fast path vs slow oracle on random histories, per engine ----

   The engines answer reads through the hint-bit fast path; the model
   below answers them with the retained slow predicate ([Txn.visible] on
   the same transaction manager) over its own version history. Any hint
   bit that caches a wrong or premature answer makes the two diverge. *)

type hstep =
  | Begin of int
  | Commit of int
  | Abort of int
  | Write of int * int * int option (* slot, key, Some v = upsert, None = delete *)
  | Read of int * int
  | ScanAll of int
  | Tick

let pp_hstep = function
  | Begin s -> Printf.sprintf "Begin %d" s
  | Commit s -> Printf.sprintf "Commit %d" s
  | Abort s -> Printf.sprintf "Abort %d" s
  | Write (s, k, Some v) -> Printf.sprintf "Write (%d,%d,%d)" s k v
  | Write (s, k, None) -> Printf.sprintf "Delete (%d,%d)" s k
  | Read (s, k) -> Printf.sprintf "Read (%d,%d)" s k
  | ScanAll s -> Printf.sprintf "Scan %d" s
  | Tick -> "Tick"

let gen_hstep =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun s -> Begin s) (int_bound 3));
        (3, map (fun s -> Commit s) (int_bound 3));
        (2, map (fun s -> Abort s) (int_bound 3));
        ( 4,
          map3
            (fun s k v -> Write (s, k, Some v))
            (int_bound 3) (int_range 1 10) (int_bound 100) );
        (1, map2 (fun s k -> Write (s, k, None)) (int_bound 3) (int_range 1 10));
        (5, map2 (fun s k -> Read (s, k)) (int_bound 3) (int_range 1 10));
        (2, map (fun s -> ScanAll s) (int_bound 3));
        (1, return Tick);
      ])

let arb_history =
  QCheck.make
    ~print:(fun (steps, async) ->
      Printf.sprintf "async=%b: %s" async
        (String.concat "; " (List.map pp_hstep steps)))
    QCheck.Gen.(
      pair (list_size (int_range 10 120) gen_hstep) (map (fun b -> b) bool))

module Equiv (E : Engine.S) = struct
  type mver = { creator : int; mval : int option }

  let run (steps, async) =
    let commit_mode =
      if async then Commitpipe.Async { interval = 0.05; max_bytes = 1 lsl 16 }
      else Commitpipe.Sync
    in
    let db = Db.create ~buffer_pages:512 ~commit_mode () in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 () in
    let mgr = db.Db.txnmgr in
    (* model: per key, version list newest-first *)
    let model : (int, mver list) Hashtbl.t = Hashtbl.create 16 in
    let push k creator mval =
      Hashtbl.replace model k ({ creator; mval } :: Option.value ~default:[] (Hashtbl.find_opt model k))
    in
    (* the slow-path oracle: first version whose creator is visible *)
    let oracle snap k =
      let rec first = function
        | [] -> None
        | v :: rest ->
            if Txn.visible mgr snap v.creator then v.mval else first rest
      in
      first (Option.value ~default:[] (Hashtbl.find_opt model k))
    in
    let slots = Array.make 4 None in
    let row k v = [| Value.Int k; Value.Int v |] in
    let check_read txn k =
      let got =
        match E.read eng txn table ~pk:k with
        | Some r -> Some (Value.int r.(1))
        | None -> None
      in
      let want = oracle txn.Txn.snapshot k in
      if got <> want then
        QCheck.Test.fail_reportf "read %d: fast path %s, slow oracle %s" k
          (match got with Some v -> string_of_int v | None -> "none")
          (match want with Some v -> string_of_int v | None -> "none")
    in
    List.iter
      (fun step ->
        match step with
        | Begin s -> if slots.(s) = None then slots.(s) <- Some (E.begin_txn eng)
        | Commit s -> (
            match slots.(s) with
            | Some txn ->
                E.commit eng txn |> Result.get_ok;
                slots.(s) <- None
            | None -> ())
        | Abort s -> (
            match slots.(s) with
            | Some txn ->
                E.abort eng txn;
                slots.(s) <- None
            | None -> ())
        | Write (s, k, Some v) -> (
            match slots.(s) with
            | None -> ()
            | Some txn -> (
                (* mirror the engine's accept/reject decision; only the
                   read results are compared against the oracle *)
                match E.read eng txn table ~pk:k with
                | Some _ ->
                    if
                      E.update eng txn table ~pk:k (fun r ->
                          let r = Array.copy r in
                          r.(1) <- Value.Int v;
                          r)
                      = Ok ()
                    then push k txn.Txn.xid (Some v)
                | None ->
                    if E.insert eng txn table (row k v) = Ok () then
                      push k txn.Txn.xid (Some v)))
        | Write (s, k, None) -> (
            match slots.(s) with
            | None -> ()
            | Some txn ->
                if E.delete eng txn table ~pk:k = Ok () then
                  push k txn.Txn.xid None)
        | Read (s, k) -> (
            match slots.(s) with
            | Some txn ->
                check_read txn k;
                (* immediately reread: the first check may have cached a
                   hint, the second must answer identically through it *)
                check_read txn k
            | None -> ())
        | ScanAll s -> (
            match slots.(s) with
            | None -> ()
            | Some txn ->
                let got = E.scan eng txn table (fun _ -> ()) in
                let want = ref 0 in
                Hashtbl.iter
                  (fun k _ ->
                    if oracle txn.Txn.snapshot k <> None then incr want)
                  model;
                if got <> !want then
                  QCheck.Test.fail_reportf "scan: fast path %d rows, oracle %d"
                    got !want)
        | Tick -> Db.tick db)
      steps;
    Array.iter (function Some txn -> E.abort eng txn | None -> ()) slots;
    (* final pass with a fresh snapshot: every surviving hint must still
       agree with the slow predicate *)
    let txn = E.begin_txn eng in
    for k = 1 to 10 do
      check_read txn k
    done;
    E.commit eng txn |> Result.get_ok;
    true

  let test name =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:(name ^ ": hint fast path = slow oracle")
         ~count:220 arb_history run)
end

module Si_equiv = Equiv (Mvcc.Si_engine)
module Si_cv_equiv = Equiv (Mvcc.Si_cv_engine)
module Sias_equiv = Equiv (Mvcc.Sias_engine)
module Sias_v_equiv = Equiv (Mvcc.Sias_vector)

(* ---- durability gate: no committed hint before the commit record is
   flushed, and none survives a crash that loses the record ---- *)

let test_hint_durability_gate () =
  (* async commit with thresholds the test never crosses: the commit
     record stays in the WAL buffer until an explicit flush *)
  let db =
    Db.create ~commit_mode:(Commitpipe.Async { interval = 1e9; max_bytes = max_int }) ()
  in
  let heap = Heapfile.create db.Db.pool ~rel:(Db.alloc_rel db) ~placement:Heapfile.Free_space_first in
  let t1 = Db.begin_txn db in
  let tid = Heapfile.insert heap (Tuple.Si.encode ~xmin:t1.Txn.xid ~row:[| Value.Int 1 |]) in
  Db.commit db t1;
  let hint_of () =
    (Tuple.Si.header (Option.get (Heapfile.read heap tid))).Tuple.Si.xmin_hint
  in
  let t2 = Db.begin_txn db in
  let h = Tuple.Si.header (Option.get (Heapfile.read heap tid)) in
  check "committed version visible" true
    (Visibility.si_visible_fast db ~heap ~tid t2.Txn.snapshot h);
  checki "hint withheld while commit record unflushed" Tuple.Hint.none (hint_of ());
  (* flush the WAL: the same check may now cache the hint *)
  Wal.flush db.Db.wal ~sync:true;
  check "still visible" true (Visibility.si_visible_fast db ~heap ~tid t2.Txn.snapshot h);
  checki "hint cached once durable" Tuple.Hint.committed (hint_of ());
  Db.commit db t2

let test_no_committed_hint_survives_crash () =
  let db =
    Db.create ~commit_mode:(Commitpipe.Async { interval = 1e9; max_bytes = max_int }) ()
  in
  let rel = Db.alloc_rel db in
  let heap = Heapfile.create db.Db.pool ~rel ~placement:Heapfile.Free_space_first in
  let t1 = Db.begin_txn db in
  let tid = Heapfile.insert heap (Tuple.Si.encode ~xmin:t1.Txn.xid ~row:[| Value.Int 1 |]) in
  let xid = t1.Txn.xid in
  Db.commit db t1;
  (* a reader probes visibility while the commit record is still only in
     the WAL buffer — the durability gate must withhold the hint *)
  let t2 = Db.begin_txn db in
  let h = Tuple.Si.header (Option.get (Heapfile.read heap tid)) in
  ignore (Visibility.si_visible_fast db ~heap ~tid t2.Txn.snapshot h);
  (* data pages reach the device; the WAL buffer (and with it the commit
     record) is then lost in the crash *)
  Bufpool.flush_all db.Db.pool ~sync:true;
  Db.crash db;
  (* after the crash nothing remembers xid as committed; a durable
     committed hint would resurrect the lost transaction *)
  let heap' = Heapfile.restore db.Db.pool ~rel ~placement:Heapfile.Free_space_first in
  match Heapfile.read heap' tid with
  | None -> ()
  | Some item ->
      let h' = Tuple.Si.header item in
      checki "creator is the lost transaction" xid h'.Tuple.Si.xmin;
      check "no committed hint for the lost transaction" true
        (h'.Tuple.Si.xmin_hint <> Tuple.Hint.committed)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_horizon;
    Si_equiv.test "SI";
    Si_cv_equiv.test "SI-CV";
    Sias_equiv.test "SIAS";
    Sias_v_equiv.test "SIAS-V";
    Alcotest.test_case "hint withheld until commit record durable" `Quick
      test_hint_durability_gate;
    Alcotest.test_case "crash cannot persist a committed hint for a lost txn" `Quick
      test_no_committed_hint_survives_crash;
  ]
