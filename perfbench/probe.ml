(* Wall-clock spans recorded around the calls into each layer, from the
   benchmark's side of the public interfaces. Nothing inside the library
   is instrumented: an engine functor wraps every [Engine.S] operation,
   a [Device.make] wrapper wraps the data device's [submit], and the
   TPC-C driver's own [Span {cat = "txn"}] bus events close transaction
   chains.

   Spans live in growable parallel arrays and are written out once, at
   the end, as Chrome trace-event JSON in wall microseconds. A span's
   self time is its duration minus the time its direct child spans
   cover. *)

module Monotime = Sias_util.Monotime

type t = {
  mutable enabled : bool;
  mutable n : int;
  mutable name : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable parent : int array;
  mutable chain : int array;
  mutable child : float array;
  mutable is_chain : bool array;
  mutable open_span : int;  (** innermost open span, -1 = none *)
  mutable chain_id : int;  (** id shared by the spans of the open chain *)
  mutable chain_start : float;  (** wall start of the open chain; nan = none *)
  mutable origin : float;  (** wall time the measured run started *)
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
}

let create () =
  let cap = 1024 in
  {
    enabled = false;
    n = 0;
    name = Array.make cap 0;
    t0 = Array.make cap 0.0;
    t1 = Array.make cap 0.0;
    parent = Array.make cap (-1);
    chain = Array.make cap 0;
    child = Array.make cap 0.0;
    is_chain = Array.make cap false;
    open_span = -1;
    chain_id = 1;
    chain_start = Float.nan;
    origin = 0.0;
    names = Hashtbl.create 32;
    name_of = [||];
  }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.add t.names s i;
      t.name_of <- Array.append t.name_of [| s |];
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name 0;
  t.t0 <- ext t.t0 0.0;
  t.t1 <- ext t.t1 0.0;
  t.parent <- ext t.parent (-1);
  t.chain <- ext t.chain 0;
  t.child <- ext t.child 0.0;
  t.is_chain <- ext t.is_chain false

let push t ~name ~t0 ~parent ~chain ~is_chain =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.t0.(i) <- t0;
  t.t1.(i) <- t0;
  t.parent.(i) <- parent;
  t.chain.(i) <- chain;
  t.child.(i) <- 0.0;
  t.is_chain.(i) <- is_chain;
  i

let start t =
  t.origin <- Monotime.now ();
  t.chain_start <- Float.nan;
  t.enabled <- true

let stop t = t.enabled <- false

(* [enter ~opens_chain] marks calls a transaction makes: the first one
   after a closed chain starts the next chain's wall span. Other calls
   (device requests, engine GC) join the enclosing span's chain, else
   the open chain; engine GC runs between chains and gets id 0. *)
let enter t ~opens_chain name =
  if not t.enabled then -1
  else begin
    let now = Monotime.now () in
    let chain =
      if opens_chain then begin
        if Float.is_nan t.chain_start then t.chain_start <- now;
        t.chain_id
      end
      else if t.open_span >= 0 then t.chain.(t.open_span)
      else if Float.is_nan t.chain_start then 0
      else t.chain_id
    in
    let i = push t ~name ~t0:now ~parent:t.open_span ~chain ~is_chain:false in
    t.open_span <- i;
    i
  end

let leave t i =
  if i >= 0 then begin
    let now = Monotime.now () in
    t.t1.(i) <- now;
    let p = t.parent.(i) in
    if p >= 0 then t.child.(p) <- t.child.(p) +. (now -. t.t0.(i));
    t.open_span <- p
  end

let span t ~opens_chain name f =
  let i = enter t ~opens_chain name in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

(* Close the open transaction chain: called when the driver publishes
   its [Span {cat = "txn"}] event, after the chain's last call and the
   driver's post-transaction tick. Returns the chain's wall duration. *)
let close_chain t name =
  if not t.enabled then 0.0
  else begin
    let now = Monotime.now () in
    let t0 = if Float.is_nan t.chain_start then now else t.chain_start in
    let i = push t ~name ~t0 ~parent:(-1) ~chain:t.chain_id ~is_chain:true in
    t.t1.(i) <- now;
    t.chain_id <- t.chain_id + 1;
    t.chain_start <- Float.nan;
    now -. t0
  end

type agg = { calls : int; wall_s : float; self_s : float }

(* Per span name: call count, summed duration and summed self time
   (chain spans excluded). *)
let aggregate t =
  let k = Array.length t.name_of in
  let calls = Array.make k 0 and wall = Array.make k 0.0 and self = Array.make k 0.0 in
  for i = 0 to t.n - 1 do
    if not t.is_chain.(i) then begin
      let k = t.name.(i) in
      let d = t.t1.(i) -. t.t0.(i) in
      calls.(k) <- calls.(k) + 1;
      wall.(k) <- wall.(k) +. d;
      self.(k) <- self.(k) +. (d -. t.child.(i))
    end
  done;
  fun name ->
    match Hashtbl.find_opt t.names name with
    | None -> { calls = 0; wall_s = 0.0; self_s = 0.0 }
    | Some k -> { calls = calls.(k); wall_s = wall.(k); self_s = self.(k) }

(* Wall time covered by outermost layer calls: everything else in the
   measured run is the driver's own work. *)
let top_level_s t =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    if (not t.is_chain.(i)) && t.parent.(i) < 0 then
      s := !s +. (t.t1.(i) -. t.t0.(i))
  done;
  !s

let span_count t = t.n

(* Chrome trace-event JSON: chain spans on tid 1, layer calls on tid 2
   (so Perfetto nests device requests under the engine call that issued
   them), timestamps in wall microseconds from the run start. *)
let write_chrome t path =
  (* a chain's children are the outermost layer calls it made *)
  let in_chain = Array.make (t.chain_id + 1) 0.0 in
  for i = 0 to t.n - 1 do
    if (not t.is_chain.(i)) && t.parent.(i) < 0 then
      in_chain.(t.chain.(i)) <- in_chain.(t.chain.(i)) +. (t.t1.(i) -. t.t0.(i))
  done;
  let b = Buffer.create (t.n * 110) in
  Buffer.add_string b "{\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then Buffer.add_char b ',';
    let name = t.name_of.(t.name.(i)) in
    let cat =
      match String.index_opt name '.' with
      | Some j -> String.sub name 0 j
      | None -> name
    in
    Printf.bprintf b
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"chain\":%d,\"self_us\":%.3f}}"
      name cat
      ((t.t0.(i) -. t.origin) *. 1e6)
      ((t.t1.(i) -. t.t0.(i)) *. 1e6)
      (if t.is_chain.(i) then 1 else 2)
      t.chain.(i)
      ((t.t1.(i) -. t.t0.(i)
       -. if t.is_chain.(i) then in_chain.(t.chain.(i)) else t.child.(i))
      *. 1e6)
  done;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc

module type PROBE = sig
  val probe : t
end

(* Every [Engine.S] operation a workload can issue becomes a span named
   [mvcc.<op>]; the types stay those of [E], so the wrapper is
   transparent to callers and to the simulation. *)
module Engine (E : Mvcc.Engine.S) (P : PROBE) :
  Mvcc.Engine.S with type t = E.t and type table = E.table = struct
  include E

  let p = P.probe
  let id_begin = intern p "mvcc.begin_txn"
  let id_commit = intern p "mvcc.commit"
  let id_abort = intern p "mvcc.abort"
  let id_insert = intern p "mvcc.insert"
  let id_read = intern p "mvcc.read"
  let id_update = intern p "mvcc.update"
  let id_delete = intern p "mvcc.delete"
  let id_lookup = intern p "mvcc.lookup"
  let id_range = intern p "mvcc.range_pk"
  let id_scan = intern p "mvcc.scan"
  let id_gc = intern p "mvcc.gc"
  let op id f = span p ~opens_chain:true id f
  let begin_txn t = op id_begin (fun () -> E.begin_txn t)
  let commit t x = op id_commit (fun () -> E.commit t x)
  let abort t x = op id_abort (fun () -> E.abort t x)
  let insert t x tb row = op id_insert (fun () -> E.insert t x tb row)
  let read t x tb ~pk = op id_read (fun () -> E.read t x tb ~pk)
  let update t x tb ~pk f = op id_update (fun () -> E.update t x tb ~pk f)
  let delete t x tb ~pk = op id_delete (fun () -> E.delete t x tb ~pk)
  let lookup t x tb ~col ~key = op id_lookup (fun () -> E.lookup t x tb ~col ~key)
  let range_pk t x tb ~lo ~hi = op id_range (fun () -> E.range_pk t x tb ~lo ~hi)
  let scan t x tb f = op id_scan (fun () -> E.scan t x tb f)
  let gc t = span p ~opens_chain:false id_gc (fun () -> E.gc t)
end

(* The data device behind a [Device.make] front that spans each request
   as [flashsim.submit]. Trims and model counters pass straight through. *)
let device t inner =
  let id = intern t "flashsim.submit" in
  Flashsim.Device.make ~name:(Flashsim.Device.name inner)
    ~submit_impl:(fun ~now op ~sector ~bytes ->
      span t ~opens_chain:false id (fun () ->
          Flashsim.Device.submit inner ~now op ~sector ~bytes))
    ~info_impl:(fun () -> Flashsim.Device.info inner)
    ~trim_impl:(fun ~sector ~bytes -> Flashsim.Device.trim inner ~sector ~bytes)
    ()
