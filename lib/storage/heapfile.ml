type placement = Free_space_first | Append_only | Txn_colocated

(* An oversized row is a caller-input condition, not a programmer error:
   it deserves a typed exception with the sizes echoed. *)
exception Item_too_large of { bytes : int; rel : int }

let () =
  Printexc.register_printer (function
    | Item_too_large { bytes; rel } ->
        Some
          (Printf.sprintf
             "Heapfile.Item_too_large: a %d-byte item does not fit on any \
              page of relation %d; shrink the row or raise the page size"
             bytes rel)
    | _ -> None)

(* Blocks whose free space is at least this many bytes are kept in the
   free-space queue and are candidates for [Free_space_first] placement. *)
let min_free = 600

type t = {
  pool : Bufpool.t;
  rel : int;
  placement : placement;
  mutable nblocks : int;
  mutable fsm : int array; (* free-byte estimate per block *)
  mutable queued : bool array; (* membership in the free-space queue *)
  fsm_queue : int Queue.t;
  mutable discarded : bool array;
  mutable n_discarded : int;
  mutable seal_interval : float option;
  mutable tail_opened_at : float;
  owner_blocks : (int, int) Hashtbl.t; (* Txn_colocated: writer -> open block *)
}

let create ?seal_interval pool ~rel ~placement =
  {
    pool;
    rel;
    placement;
    nblocks = 0;
    fsm = Array.make 16 0;
    queued = Array.make 16 false;
    fsm_queue = Queue.create ();
    discarded = Array.make 16 false;
    n_discarded = 0;
    seal_interval;
    tail_opened_at = 0.0;
    owner_blocks = Hashtbl.create 32;
  }

let rel t = t.rel
let placement t = t.placement
let nblocks t = t.nblocks

let enqueue t block =
  if not t.queued.(block) then begin
    t.queued.(block) <- true;
    Queue.add block t.fsm_queue
  end

(* Record a block's free space and keep the candidate queue in sync. *)
let update_fsm t block free =
  t.fsm.(block) <- free;
  if (t.placement = Free_space_first || t.placement = Txn_colocated) && free >= min_free
  then enqueue t block

let grow t =
  let b = t.nblocks in
  t.nblocks <- b + 1;
  if b >= Array.length t.fsm then begin
    let cap = 2 * Array.length t.fsm in
    let fsm = Array.make cap 0 in
    Array.blit t.fsm 0 fsm 0 (Array.length t.fsm);
    t.fsm <- fsm;
    let queued = Array.make cap false in
    Array.blit t.queued 0 queued 0 (Array.length t.queued);
    t.queued <- queued;
    let discarded = Array.make cap false in
    Array.blit t.discarded 0 discarded 0 (Array.length t.discarded);
    t.discarded <- discarded
  end;
  update_fsm t b (Bufpool.page_size t.pool);
  b

let try_insert_into t block item =
  Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
      if t.placement = Append_only then Page.set_no_slot_reuse page;
      match Page.insert page item with
      | Some slot ->
          Bufpool.mark_dirty t.pool ~rel:t.rel ~block;
          update_fsm t block (Page.free_space page);
          Some (Tid.make ~block ~slot)
      | None ->
          update_fsm t block (Page.free_space page);
          None)

(* Once an append page has been persisted it is sealed: log-based storage
   never appends to a page already on stable storage (paper Section 5.2 —
   this is what makes the t1 threshold waste space: sparsely filled pages
   flushed early stay sparse forever). *)
let sealed t block = Bufpool.on_disk t.pool ~rel:t.rel ~block

(* The paper's t1 threshold: the current append page is physically
   appended to stable storage every bgwriter interval, however full it is
   — sealing it and wasting its remaining space. Under t2 (no interval)
   pages are only sealed by checkpoints or eviction. *)
let maybe_seal_tail t last =
  match t.seal_interval with
  | Some interval when Bufpool.now t.pool -. t.tail_opened_at >= interval ->
      Bufpool.flush_block t.pool ~rel:t.rel ~block:last ~sync:false
  | _ -> ()

let insert_append t item =
  let block =
    if t.nblocks = 0 then grow t
    else begin
      let last = t.nblocks - 1 in
      maybe_seal_tail t last;
      if sealed t last || t.discarded.(last) then begin
        let b = grow t in
        t.tail_opened_at <- Bufpool.now t.pool;
        b
      end
      else last
    end
  in
  match try_insert_into t block item with
  | Some tid -> tid
  | None -> (
      let fresh = grow t in
      match try_insert_into t fresh item with
      | Some tid -> tid
      | None -> raise (Item_too_large { bytes = Bytes.length item; rel = t.rel }))

(* Pop candidates off the free-space queue until one accepts the item.
   Successful or not, a candidate that still has room goes back to the
   tail, so consecutive inserts rotate over all pages with space — the
   scattered placement of PostgreSQL FSM lookups under concurrency. *)
let insert_free_space t item =
  let need = Bytes.length item + Page.slot_size in
  let rec probe attempts =
    if attempts = 0 then None
    else
      match Queue.take_opt t.fsm_queue with
      | None -> None
      | Some block ->
          t.queued.(block) <- false;
          if t.fsm.(block) >= need then begin
            match try_insert_into t block item with
            | Some tid -> Some tid (* try_insert_into requeued it if roomy *)
            | None -> probe (attempts - 1)
          end
          else begin
            (* stale estimate or item too big for this hole: keep the
               block available for smaller items *)
            if t.fsm.(block) >= min_free then enqueue t block;
            probe (attempts - 1)
          end
  in
  match probe (Queue.length t.fsm_queue) with
  | Some tid -> tid
  | None -> (
      let fresh = grow t in
      match try_insert_into t fresh item with
      | Some tid -> tid
      | None -> raise (Item_too_large { bytes = Bytes.length item; rel = t.rel }))

(* SI-CV placement (Gottstein et al., TPC-TC'12, the paper's [18]):
   versions written by the same transaction are co-located — each writer
   keeps an open page and fills it before taking a fresh one. Pages whose
   writer moved on become ordinary free-space candidates. *)
let insert_colocated t ~owner item =
  let try_owner_block () =
    match Hashtbl.find_opt t.owner_blocks owner with
    | Some block -> (
        match try_insert_into t block item with
        | Some tid -> Some tid
        | None ->
            Hashtbl.remove t.owner_blocks owner;
            None)
    | None -> None
  in
  let open_block () =
    (* adopt a partially filled page if one exists (later transactions
       fill the space earlier ones left), else grow *)
    let need = Bytes.length item + Page.slot_size in
    let rec pop attempts =
      if attempts = 0 then None
      else
        match Queue.take_opt t.fsm_queue with
        | None -> None
        | Some block ->
            t.queued.(block) <- false;
            if t.fsm.(block) >= need then Some block
            else begin
              if t.fsm.(block) >= min_free then enqueue t block;
              pop (attempts - 1)
            end
    in
    match pop (Queue.length t.fsm_queue) with Some b -> b | None -> grow t
  in
  match try_owner_block () with
  | Some tid -> tid
  | None -> (
      let block = open_block () in
      Hashtbl.replace t.owner_blocks owner block;
      match try_insert_into t block item with
      | Some tid -> tid
      | None -> (
          let fresh = grow t in
          Hashtbl.replace t.owner_blocks owner fresh;
          match try_insert_into t fresh item with
          | Some tid -> tid
          | None -> raise (Item_too_large { bytes = Bytes.length item; rel = t.rel })))

let insert_owned t ~owner item =
  match t.placement with
  | Append_only -> insert_append t item
  | Free_space_first -> insert_free_space t item
  | Txn_colocated -> insert_colocated t ~owner item

let insert t item =
  match t.placement with
  | Append_only -> insert_append t item
  | Free_space_first -> insert_free_space t item
  | Txn_colocated -> insert_colocated t ~owner:0 item

let read t tid =
  let block = Tid.block tid in
  if block < 0 || block >= t.nblocks || t.discarded.(block) then None
  else Bufpool.with_page t.pool ~rel:t.rel ~block (fun page -> Page.read page (Tid.slot tid))

(* Hint-bit patch: unlogged, non-dirtying, resident-only (see
   {!Bufpool.patch_resident}). Silently skipped for evicted or discarded
   pages — a hint is advice, not state. *)
let patch_hint t tid ~off ~bits =
  let block = Tid.block tid in
  if block >= 0 && block < t.nblocks && not t.discarded.(block) then
    ignore
      (Bufpool.patch_resident t.pool ~rel:t.rel ~block ~slot:(Tid.slot tid) ~off ~bits)

let update_in_place t tid item =
  let block = Tid.block tid in
  if block < 0 || block >= t.nblocks then invalid_arg "Heapfile.update_in_place: bad block";
  Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
      let ok = Page.update page (Tid.slot tid) item in
      if ok then Bufpool.mark_dirty t.pool ~rel:t.rel ~block;
      ok)

let delete t tid =
  let block = Tid.block tid in
  if block < 0 || block >= t.nblocks then invalid_arg "Heapfile.delete: bad block";
  Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
      Page.delete page (Tid.slot tid);
      Bufpool.mark_dirty t.pool ~rel:t.rel ~block;
      update_fsm t block (Page.free_space page))

let iter t f =
  for block = 0 to t.nblocks - 1 do
    if not t.discarded.(block) then
      Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
          Page.iter page (fun slot item -> f (Tid.make ~block ~slot) item))
  done

let read_ro t tid =
  let block = Tid.block tid in
  if block < 0 || block >= t.nblocks || t.discarded.(block) then None
  else
    Bufpool.with_page_ro t.pool ~rel:t.rel ~block (fun page -> Page.read page (Tid.slot tid))

let iter_ro t f =
  for block = 0 to t.nblocks - 1 do
    if not t.discarded.(block) then
      Bufpool.with_page_ro t.pool ~rel:t.rel ~block (fun page ->
          Page.iter page (fun slot item -> f (Tid.make ~block ~slot) item))
  done

let page_fill t ~block =
  if block < 0 || block >= t.nblocks then invalid_arg "Heapfile.page_fill: bad block";
  if t.discarded.(block) then 0.0
  else Bufpool.with_page_ro t.pool ~rel:t.rel ~block Page.fill_ratio

let avg_fill t =
  let live = t.nblocks - t.n_discarded in
  if live <= 0 then 0.0
  else begin
    let total = ref 0.0 in
    for block = 0 to t.nblocks - 1 do
      if not t.discarded.(block) then total := !total +. page_fill t ~block
    done;
    !total /. float_of_int live
  end

let last_block t = if t.nblocks = 0 then None else Some (t.nblocks - 1)

let restore pool ~rel ~placement =
  let t = create pool ~rel ~placement in
  let nblocks = Bufpool.extent pool ~rel in
  for _ = 1 to nblocks do
    ignore (grow t)
  done;
  for block = 0 to nblocks - 1 do
    if Bufpool.on_disk pool ~rel ~block || Bufpool.resident pool ~rel ~block then
      Bufpool.with_page pool ~rel ~block (fun page ->
          update_fsm t block (Page.free_space page))
    else begin
      (* neither flushed nor replayed: the page was discarded by GC *)
      t.discarded.(block) <- true;
      t.n_discarded <- t.n_discarded + 1;
      t.fsm.(block) <- 0
    end
  done;
  t

let discard_block t block =
  if block < 0 || block >= t.nblocks then invalid_arg "Heapfile.discard_block: bad block";
  if Some block = last_block t then invalid_arg "Heapfile.discard_block: append tail";
  if not t.discarded.(block) then begin
    Bufpool.trim_block t.pool ~rel:t.rel ~block;
    t.discarded.(block) <- true;
    t.n_discarded <- t.n_discarded + 1;
    t.fsm.(block) <- 0 (* discarded blocks never receive inserts *)
  end

let discarded t block = block >= 0 && block < t.nblocks && t.discarded.(block)
let discarded_count t = t.n_discarded
let live_blocks t = t.nblocks - t.n_discarded
