(* The benchmark's workloads. Each states its sizes, its flush and commit
   policy and its mix, and why it is in the benchmark: together they put
   every layer on the measured path of at least one workload, and each
   optimisation has one workload that exercises it and one that bypasses
   it. All load is simulated TPC-C terminals in one closed loop (a
   terminal thinks, sends, and waits for the reply) on one domain. *)

module W = Tpcc.Tpcc_workload

type flush = T1 | T2

type t = {
  name : string;
  why : string;
  engine : string;  (** engine registry key *)
  index : [ `Array | `Paged ];
  warehouses : int;
  scale_div : int;  (** TPC-C cardinality divisor *)
  terminals_per_warehouse : int;
  think_time_s : float;  (** mean simulated think time *)
  duration_s : float;  (** simulated length of the measured run *)
  buffer_pages : int;  (** 8 KB frames *)
  heap_mb : float;
      (** stated heap size after the load; the run fails if the measured
          size is off by more than a quarter *)
  fits_in_buffer : bool;
      (** [true]: the run must not evict; [false]: it must evict and the
          device must erase *)
  device_blocks : int;  (** data SSD: blocks of 64 x 4 KB flash pages *)
  flush : flush;
      (** T1: 200 ms bgwriter trickle of up to 100 pages and sealed
          append tails; T2: checkpoint-only flushing *)
  checkpoint_interval_s : float;
  gc_interval_s : float option;  (** engine GC period; [None] = off *)
  mix : (int * W.tx_kind) list;
}

let standard_mix =
  W.
    [
      (45, New_order); (43, Payment); (4, Order_status); (4, Delivery);
      (4, Stock_level);
    ]

let all =
  [
    {
      name = "tpcc-inram-sias-v";
      why =
        "SIAS-V, standard mix, data in RAM: engine, txn, array index, WAL \
         commit and driver on the CPU path; no evictions, no flash GC";
      engine = "sias-v";
      index = `Array;
      warehouses = 4;
      scale_div = 100;
      terminals_per_warehouse = 10;
      think_time_s = 0.1;
      duration_s = 20.0;
      buffer_pages = 16384;
      heap_mb = 3.3;
      fits_in_buffer = true;
      device_blocks = 8192;
      flush = T2;
      checkpoint_interval_s = 10.0;
      gc_interval_s = Some 5.0;
      mix = standard_mix;
    };
    {
      name = "tpcc-beyond-ram-si-paged";
      why =
        "SI on paged B+Trees, buffer far below the data, T1 trickle, small \
         SSD: misses, evictions, write-back, FTL GC and paged-index decoding";
      engine = "si";
      index = `Paged;
      warehouses = 2;
      scale_div = 100;
      terminals_per_warehouse = 2;
      think_time_s = 0.05;
      duration_s = 50.0;
      buffer_pages = 64;
      heap_mb = 1.5;
      fits_in_buffer = false;
      device_blocks = 128;
      flush = T1;
      checkpoint_interval_s = 30.0;
      gc_interval_s = None;
      mix = standard_mix;
    };
    {
      name = "readheavy-sias-chains";
      why =
        "SIAS chains, read-dominated mix, engine GC off, data in RAM: \
         visibility walks over deepening version chains, little WAL or I/O";
      engine = "sias";
      index = `Array;
      warehouses = 4;
      scale_div = 100;
      terminals_per_warehouse = 10;
      think_time_s = 0.25;
      duration_s = 120.0;
      buffer_pages = 4096;
      heap_mb = 3.2;
      fits_in_buffer = true;
      device_blocks = 8192;
      flush = T2;
      checkpoint_interval_s = 30.0;
      gc_interval_s = None;
      mix =
        W.
          [
            (10, New_order); (10, Payment); (32, Order_status); (4, Delivery);
            (44, Stock_level);
          ];
    };
  ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all

let describe w =
  Printf.sprintf
    "%s: engine %s, %s index, %d warehouses (scale 1/%d), %d terminals/WH, \
     think %.3gs, %.0fs simulated; heap ~%.1f MB vs buffer %.1f MB (%d pages); \
     data SSD %d blocks (%.0f MB); flush %s, checkpoint every %.0fs; \
     synchronous commit, per-commit fsync; engine GC %s; mix %s"
    w.name w.engine
    (match w.index with `Array -> "array" | `Paged -> "paged")
    w.warehouses w.scale_div w.terminals_per_warehouse w.think_time_s
    w.duration_s w.heap_mb
    (float_of_int (w.buffer_pages * 8192) /. 1048576.0)
    w.buffer_pages w.device_blocks
    (float_of_int (w.device_blocks * 64 * 4096) /. 1048576.0)
    (match w.flush with T1 -> "T1 (200 ms bgwriter)" | T2 -> "T2 (checkpoint only)")
    w.checkpoint_interval_s
    (match w.gc_interval_s with
    | Some s -> Printf.sprintf "every %.0fs" s
    | None -> "off")
    (String.concat "/"
       (List.map
          (fun (n, k) -> Printf.sprintf "%s %d" (W.tx_kind_to_string k) n)
          w.mix))
