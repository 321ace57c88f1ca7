(* Quickstart: open a SIAS-Chains database on a simulated Flash SSD,
   create a table, run a few transactions and look at the I/O counters.

     dune exec examples/quickstart.exe
*)

module E = Mvcc.Sias_engine
module Db = Mvcc.Db
module Value = Mvcc.Value

let () =
  (* a database context: simulated SSD + buffer pool + WAL + txn manager *)
  let db = Db.create ~buffer_pages:1024 () in
  let eng = E.create db in

  (* products(id, price, name) with a secondary index on price *)
  let products = E.create_table eng ~name:"products" ~pk_col:0 ~secondary:[ 1 ] () in

  (* insert a few rows in one transaction *)
  let txn = E.begin_txn eng in
  List.iter
    (fun (id, price, name) ->
      E.insert eng txn products [| Value.Int id; Value.Int price; Value.Str name |]
      |> Result.get_ok)
    [ (1, 999, "laptop"); (2, 49, "keyboard"); (3, 49, "mouse"); (4, 299, "monitor") ];
  E.commit eng txn |> Result.get_ok;

  (* update: creates a new tuple version, appended — the old one is never
     touched (no in-place invalidation) *)
  let txn = E.begin_txn eng in
  E.update eng txn products ~pk:1 (fun row ->
      let row = Array.copy row in
      row.(1) <- Value.Int 899;
      row)
  |> Result.get_ok;
  E.commit eng txn |> Result.get_ok;

  (* point read, index lookup, range scan *)
  let txn = E.begin_txn eng in
  (match E.read eng txn products ~pk:1 with
  | Some row -> Format.printf "laptop now costs %d@." (Value.int row.(1))
  | None -> assert false);
  let cheap = E.lookup eng txn products ~col:1 ~key:49 in
  Format.printf "%d products cost 49@." (List.length cheap);
  let all = E.range_pk eng txn products ~lo:1 ~hi:10 in
  Format.printf "range scan sees %d products@." (List.length all);
  E.commit eng txn |> Result.get_ok;

  (* what reached the device? *)
  Sias_storage.Bufpool.flush_all db.Db.pool ~sync:false;
  let trace = Flashsim.Device.trace db.Db.device in
  Format.printf "device: %d page writes (%.1f KB), %d reads@."
    (Flashsim.Blocktrace.write_count trace)
    (1024.0 *. Flashsim.Blocktrace.write_mb trace)
    (Flashsim.Blocktrace.read_count trace);
  let walks, visited = E.walk_stats eng in
  Format.printf "version-chain walks: %d (%.2f versions each)@." walks
    (if walks = 0 then 0.0 else float_of_int visited /. float_of_int walks)
