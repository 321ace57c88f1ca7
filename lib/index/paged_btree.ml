(* Paged, WAL-logged B+Tree over slotted 8 KB buffer-pool pages.

   Node page layout — slot 0 is a fixed 32-byte header item, every other
   live slot one entry:
     [0]      tag: 0 = leaf, 1 = internal
     [1]      level (u8): 0 = leaf
     [2]      flags: bit 0 = high key valid
     [3]      pad
     [4..7]   right-sibling block + 1 (i32 LE; 0 = none)
     [8..15]  high key (i64 LE)
     [16..23] high payload (i64 LE)
     [24..31] ref key (i64 LE) — prefix-truncation base, internal nodes
   Leaf entry (16 bytes): key i64 LE, payload i64 LE.
   Internal entry: shared u8, (8 - shared) big-endian key-suffix bytes
   against the node's ref key, payload i64 LE, child block i32 LE — the
   TPC-C composite keys share their warehouse/district high bytes, so
   separators shrink toward 14 bytes.
   Block 0 is the metadata page: root i64, height i64, nblocks i64.

   Entries order lexicographically by (key, payload), the same relation
   as {!Btree.cmp_pair}, so duplicate keys order deterministically.
   Internal entries are (minimum pair, child) with leftmost fallback: a
   probe below every separator descends into the first child. Slots
   keep insertion order; nodes are read in place on their pinned page
   (see "in-place node reads").

   WAL-first: every structural change is planned as a list of page
   deltas against the current byte state, logged as one atomic Ix_batch
   record through the injected [log], and only then applied to the pool
   pages (stamping the batch LSN). Replay applies the identical deltas
   to identical bytes behind a page-LSN gate, so recovery is byte-exact
   and idempotent. [Ins] deltas carry no slot on purpose: slot choice is
   a deterministic function of the page bytes. *)

module Bufpool = Sias_storage.Bufpool
module Page = Sias_storage.Page
module Bus = Sias_obs.Bus
module Crashpoint = Sias_chaos.Crashpoint

type op = Ins of bytes | Upd of int * bytes | Del of int
type delta = { d_block : int; d_new : bool; d_op : op }

type stats = { inserts : int; deletes : int; splits : int; merges : int; lookups : int }

type t = {
  pool : Bufpool.t;
  rel : int;
  log : delta list -> int;
  bus : Bus.t option;
  mutable root : int;
  mutable height : int; (* 1 = the root is a leaf *)
  mutable nblocks : int; (* including the metadata block 0 *)
  mutable entries : int;
  mutable inserts : int;
  mutable deletes : int;
  mutable splits : int;
  mutable merges : int;
  mutable lookups : int;
}

let leaf_cap = 300
let internal_cap = 250

let cmp_pair ((k1 : int), (p1 : int)) (k2, p2) =
  let c = Int.compare k1 k2 in
  if c <> 0 then c else Int.compare p1 p2

let pair_lt (k1 : int) (p1 : int) k2 p2 = k1 < k2 || (k1 = k2 && p1 < p2)

(* ---------------- item codecs ---------------- *)

let header_item ~leaf ~level ~right ~high ~ref_key =
  let b = Bytes.make 32 '\000' in
  Bytes.set_uint8 b 0 (if leaf then 0 else 1);
  Bytes.set_uint8 b 1 level;
  (match high with
  | Some (hk, hp) ->
      Bytes.set_uint8 b 2 1;
      Bytes.set_int64_le b 8 (Int64.of_int hk);
      Bytes.set_int64_le b 16 (Int64.of_int hp)
  | None -> ());
  Bytes.set_int32_le b 4 (Int32.of_int (right + 1));
  Bytes.set_int64_le b 24 (Int64.of_int ref_key);
  b

let leaf_item ~key ~payload =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int key);
  Bytes.set_int64_le b 8 (Int64.of_int payload);
  b

let be_key k =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int k);
  b

let internal_item ~ref_key ~key ~payload ~child =
  let rb = be_key ref_key and kb = be_key key in
  let shared = ref 0 in
  while !shared < 8 && Bytes.get rb !shared = Bytes.get kb !shared do
    incr shared
  done;
  let s = !shared in
  let b = Bytes.create (1 + (8 - s) + 12) in
  Bytes.set_uint8 b 0 s;
  Bytes.blit kb s b 1 (8 - s);
  Bytes.set_int64_le b (9 - s) (Int64.of_int payload);
  Bytes.set_int32_le b (17 - s) (Int32.of_int child);
  b

let meta_item ~root ~height ~nblocks =
  let b = Bytes.create 24 in
  Bytes.set_int64_le b 0 (Int64.of_int root);
  Bytes.set_int64_le b 8 (Int64.of_int height);
  Bytes.set_int64_le b 16 (Int64.of_int nblocks);
  b

(* ---------------- in-place node reads ----------------

   Everything here reads a node where it sits in its buffer-pool page
   and must run inside that node's [Bufpool.with_page]. [h] is the
   header item's offset. Slots stay in insertion order, so an ordered
   question is one scan over the live slots; that the scans agree with
   binary search over the sorted node rests on (key, payload) pairs
   being unique within a node ({!check_invariants}). *)

let header page =
  let h = Page.item_off page 0 in
  if h < 0 then failwith "Paged_btree: missing node header";
  h

let is_leaf page h = Page.get_uint8 page h = 0
let level page h = Page.get_uint8 page (h + 1)
let right page h = Page.get_int32_le page (h + 4) - 1

let high page h =
  if Page.get_uint8 page (h + 2) land 1 = 1 then
    Some (Page.get_int64_le page (h + 8), Page.get_int64_le page (h + 16))
  else None

let ref_key page h = Page.get_int64_le page (h + 24)
let count page = Page.live_count page - 1

(* Entry fields at item offset [o]. An internal key is the ref key's
   first [shared] big-endian bytes followed by the stored suffix bytes;
   shifts on [int] wrap exactly like [Int64.to_int] of the 8-byte image. *)
let key_at page ~leaf ~ref_key o =
  if leaf then Page.get_int64_le page o
  else begin
    let s = Page.get_uint8 page o in
    let k = ref (if s = 0 then 0 else ref_key asr (64 - (8 * s))) in
    for i = 1 to 8 - s do
      k := (!k lsl 8) lor Page.get_uint8 page (o + i)
    done;
    !k
  end

let payload_at page ~leaf o =
  Page.get_int64_le page (if leaf then o + 8 else o + 9 - Page.get_uint8 page o)

let child_at page o = Page.get_int32_le page (o + 17 - Page.get_uint8 page o)

(* Slot of the greatest pair <= (key, payload) — < when [strict] — in
   an internal node; -1 when there is none. *)
let floor_slot page ~ref_key ~strict key payload =
  let best = ref (-1) and bk = ref 0 and bp = ref 0 in
  for slot = 1 to Page.slot_count page - 1 do
    let o = Page.item_off page slot in
    if o >= 0 then begin
      let k = key_at page ~leaf:false ~ref_key o and p = payload_at page ~leaf:false o in
      let below = if strict then pair_lt k p key payload else not (pair_lt key payload k p) in
      if below && (!best < 0 || pair_lt !bk !bp k p) then begin
        best := slot;
        bk := k;
        bp := p
      end
    end
  done;
  !best

let least_slot page ~ref_key =
  let best = ref (-1) and bk = ref 0 and bp = ref 0 in
  for slot = 1 to Page.slot_count page - 1 do
    let o = Page.item_off page slot in
    if o >= 0 then begin
      let k = key_at page ~leaf:false ~ref_key o and p = payload_at page ~leaf:false o in
      if !best < 0 || pair_lt k p !bk !bp then begin
        best := slot;
        bk := k;
        bp := p
      end
    end
  done;
  !best

(* Slot of the entry a probe descends through: the greatest pair <= the
   probe, or the least pair when the probe is below all of them
   (leftmost fallback). *)
let route page h key payload =
  let ref_key = ref_key page h in
  let s = floor_slot page ~ref_key ~strict:false key payload in
  if s >= 0 then s else least_slot page ~ref_key

let child_of page slot = child_at page (Page.item_off page slot)

(* Slot holding exactly (key, payload) in a leaf, or -1. *)
let leaf_slot page key payload =
  let found = ref (-1) and slot = ref 1 in
  let n = Page.slot_count page in
  while !found < 0 && !slot < n do
    let o = Page.item_off page !slot in
    if o >= 0 && Page.get_int64_le page o = key && Page.get_int64_le page (o + 8) = payload
    then found := !slot;
    incr slot
  done;
  !found

(* ---------------- sorted node view (split planning, iter, checks) ---------------- *)

type entry = { e_key : int; e_payload : int; e_child : int; e_slot : int }

type node = {
  nd_block : int;
  nd_leaf : bool;
  nd_level : int;
  nd_right : int; (* -1 = none *)
  nd_high : (int * int) option;
  nd_ref_key : int;
  nd_entries : entry list; (* sorted by (key, payload) *)
}

let cmp_entry a b =
  let c = Int.compare a.e_key b.e_key in
  if c <> 0 then c else Int.compare a.e_payload b.e_payload

let entries page h =
  let leaf = is_leaf page h and ref_key = ref_key page h in
  let acc = ref [] in
  for slot = 1 to Page.slot_count page - 1 do
    let o = Page.item_off page slot in
    if o >= 0 then
      acc :=
        {
          e_key = key_at page ~leaf ~ref_key o;
          e_payload = payload_at page ~leaf o;
          e_child = (if leaf then -1 else child_at page o);
          e_slot = slot;
        }
        :: !acc
  done;
  List.sort cmp_entry !acc

let decode page ~block =
  let h = header page in
  {
    nd_block = block;
    nd_leaf = is_leaf page h;
    nd_level = level page h;
    nd_right = right page h;
    nd_high = high page h;
    nd_ref_key = ref_key page h;
    nd_entries = entries page h;
  }

let node_header node ~right ~high =
  header_item ~leaf:node.nd_leaf ~level:node.nd_level ~right ~high
    ~ref_key:node.nd_ref_key

(* ---------------- delta application ---------------- *)

let apply_delta page d =
  match d.d_op with
  | Ins item -> (
      match Page.insert page item with
      | Some _ -> ()
      | None -> failwith "Paged_btree.apply_delta: page full (replay divergence)")
  | Upd (slot, item) ->
      if not (Page.update page slot item) then
        failwith "Paged_btree.apply_delta: update does not fit (replay divergence)"
  | Del slot -> Page.delete page slot

let observed t = match t.bus with Some b -> Bus.active b | None -> false
let emit t e = match t.bus with Some b -> Bus.publish b e | None -> ()

(* WAL-first commit of one structural change: log the batch (the logger
   adds full-page-write protection), then apply the deltas block by
   block, stamping the batch LSN. The two crash points model losing
   power after the record is durable but before any page changed, and
   between the page writes of a multi-page change (a torn split). *)
let run_batch t deltas =
  let lsn = t.log deltas in
  Crashpoint.reach "index.wal.pre-apply";
  let blocks =
    List.fold_left
      (fun acc d -> if List.mem d.d_block acc then acc else d.d_block :: acc)
      [] deltas
    |> List.rev
  in
  List.iteri
    (fun i block ->
      if i > 0 then Crashpoint.reach "index.split.mid";
      Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
          if Page.lsn page < lsn then begin
            List.iter (fun d -> if d.d_block = block then apply_delta page d) deltas;
            Page.set_lsn page lsn
          end);
      Bufpool.mark_dirty t.pool ~rel:t.rel ~block;
      if observed t then
        emit t
          (Bus.Index_page_io
             {
               rel = t.rel;
               block;
               deltas = List.length (List.filter (fun d -> d.d_block = block) deltas);
             }))
    blocks

(* Descend from the root to the leaf (key, payload) routes to, then
   follow right links while [f page h] — run in place on each leaf —
   returns true. One pin per node: an internal visit yields the child,
   a leaf visit the next leaf (or -1). *)
let walk_leaves t ~key ~payload f =
  let rec go block =
    if block >= 0 then
      go
        (Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
             let h = header page in
             if is_leaf page h then if f page h then right page h else -1
             else child_of page (route page h key payload)))
  in
  go t.root

(* ---------------- create / restore ---------------- *)

let fresh pool ~rel ~log ~bus =
  {
    pool;
    rel;
    log;
    bus;
    root = 1;
    height = 1;
    nblocks = 2;
    entries = 0;
    inserts = 0;
    deletes = 0;
    splits = 0;
    merges = 0;
    lookups = 0;
  }

let init_batch t =
  run_batch t
    [
      {
        d_block = 1;
        d_new = true;
        d_op = Ins (header_item ~leaf:true ~level:0 ~right:(-1) ~high:None ~ref_key:0);
      };
      { d_block = 0; d_new = true; d_op = Ins (meta_item ~root:1 ~height:1 ~nblocks:2) };
    ]

let create pool ~rel ~log ?bus () =
  let t = fresh pool ~rel ~log ~bus in
  init_batch t;
  t

let restore pool ~rel ~log ?bus () =
  let t = fresh pool ~rel ~log ~bus in
  let meta = Bufpool.with_page t.pool ~rel ~block:0 (fun page -> Page.read page 0) in
  (match meta with
  | None ->
      (* The creation batch never reached the durable WAL prefix, so at
         this recovery horizon the tree never existed — and neither did
         any heap row logged after it (WAL flushing is prefix-ordered).
         Re-initialize it empty rather than failing recovery. *)
      init_batch t
  | Some m ->
      let i64 off = Int64.to_int (Bytes.get_int64_le m off) in
      t.root <- i64 0;
      t.height <- i64 8;
      t.nblocks <- i64 16;
      walk_leaves t ~key:min_int ~payload:min_int (fun page _ ->
          t.entries <- t.entries + count page;
          true));
  t

(* ---------------- insert ---------------- *)

exception Duplicate

(* What one pinned visit of a node on the insert path learned. A node
   that is full is decoded there and then: the page cannot be pinned
   again to plan its split once the child below has answered. *)
type insert_step =
  | Dup
  | Room
  | Full of node
  | Inner of { child : int; ref_key : int; full : node option }

(* Split a full node around the median of its entries plus [extra] (the
   pair being added; slot -1). The upper half moves to a fresh block and
   the right node's first pair is the separator the parent must absorb;
   in a leaf it also stays as an entry. *)
let plan_split deltas alloc splits node extra =
  let item ~ref_key e =
    if node.nd_leaf then leaf_item ~key:e.e_key ~payload:e.e_payload
    else internal_item ~ref_key ~key:e.e_key ~payload:e.e_payload ~child:e.e_child
  in
  let all = List.merge cmp_entry node.nd_entries [ extra ] in
  let m = List.length all / 2 in
  let left, right = (List.filteri (fun i _ -> i < m) all, List.filteri (fun i _ -> i >= m) all) in
  let sep = List.hd right in
  let block = node.nd_block in
  let rb = alloc () in
  let rd =
    { d_block = rb; d_new = true;
      d_op = Ins (header_item ~leaf:node.nd_leaf ~level:node.nd_level
                    ~right:node.nd_right ~high:node.nd_high ~ref_key:sep.e_key) }
    :: List.map
         (fun e -> { d_block = rb; d_new = true; d_op = Ins (item ~ref_key:sep.e_key e) })
         right
  in
  let ld =
    (* slots of pre-existing entries that moved right *)
    List.filter_map
      (fun e ->
        if e.e_slot >= 0 then Some { d_block = block; d_new = false; d_op = Del e.e_slot }
        else None)
      right
    @ (if List.exists (fun e -> e.e_slot = -1) left then
         [ { d_block = block; d_new = false; d_op = Ins (item ~ref_key:node.nd_ref_key extra) } ]
       else [])
    @ [ { d_block = block; d_new = false;
          d_op = Upd (0, node_header node ~right:rb ~high:(Some (sep.e_key, sep.e_payload))) } ]
  in
  deltas := List.rev_append rd (List.rev_append ld !deltas);
  splits := (node.nd_level, rb) :: !splits;
  (sep.e_key, sep.e_payload, rb)

(* Plan the insert along one root-to-leaf path, splitting full nodes
   bottom-up into the same batch. Returns [Some (sep_key, sep_payload,
   right_block)] when the caller's level must absorb a new separator. *)
let rec plan_insert t deltas alloc splits block ~key ~payload =
  let step =
    Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
        let h = header page in
        if is_leaf page h then
          if leaf_slot page key payload >= 0 then Dup
          else if count page < leaf_cap then Room
          else Full (decode page ~block)
        else
          Inner
            {
              child = child_of page (route page h key payload);
              ref_key = ref_key page h;
              full = (if count page < internal_cap then None else Some (decode page ~block));
            })
  in
  match step with
  | Dup -> raise Duplicate
  | Room ->
      deltas :=
        { d_block = block; d_new = false; d_op = Ins (leaf_item ~key ~payload) } :: !deltas;
      None
  | Full node ->
      Some
        (plan_split deltas alloc splits node
           { e_key = key; e_payload = payload; e_child = -1; e_slot = -1 })
  | Inner { child; ref_key; full } -> (
      match plan_insert t deltas alloc splits child ~key ~payload with
      | None -> None
      | Some (sk, sp, rb) -> (
          match full with
          | None ->
              deltas :=
                { d_block = block; d_new = false;
                  d_op = Ins (internal_item ~ref_key ~key:sk ~payload:sp ~child:rb) }
                :: !deltas;
              None
          | Some node ->
              Some
                (plan_split deltas alloc splits node
                   { e_key = sk; e_payload = sp; e_child = rb; e_slot = -1 })))

let insert t ~key ~payload =
  let deltas = ref [] in
  let nalloc = ref t.nblocks in
  let alloc () =
    let b = !nalloc in
    incr nalloc;
    b
  in
  let splits = ref [] in
  match
    let up = plan_insert t deltas alloc splits t.root ~key ~payload in
    (match up with
    | None -> ()
    | Some (sk, sp, rb) ->
        (* root split: a fresh root routes everything below the first
           separator into the old root via a min-pair leftmost entry *)
        let nr = alloc () in
        let level = t.height in
        deltas :=
          { d_block = 0; d_new = false;
            d_op = Upd (0, meta_item ~root:nr ~height:(t.height + 1) ~nblocks:!nalloc) }
          :: { d_block = nr; d_new = true;
               d_op = Ins (internal_item ~ref_key:min_int ~key:sk ~payload:sp ~child:rb) }
          :: { d_block = nr; d_new = true;
               d_op = Ins (internal_item ~ref_key:min_int ~key:min_int
                             ~payload:min_int ~child:t.root) }
          :: { d_block = nr; d_new = true;
               d_op = Ins (header_item ~leaf:false ~level ~right:(-1) ~high:None
                             ~ref_key:min_int) }
          :: !deltas);
    if up = None && !nalloc > t.nblocks then
      deltas :=
        { d_block = 0; d_new = false;
          d_op = Upd (0, meta_item ~root:t.root ~height:t.height ~nblocks:!nalloc) }
        :: !deltas;
    run_batch t (List.rev !deltas);
    t.nblocks <- !nalloc;
    (match up with
    | Some _ ->
        t.root <- !nalloc - 1;
        t.height <- t.height + 1
    | None -> ());
    t.entries <- t.entries + 1;
    t.inserts <- t.inserts + 1;
    t.splits <- t.splits + List.length !splits;
    if observed t then
      List.iter
        (fun (level, _) -> emit t (Bus.Index_split { rel = t.rel; level }))
        (List.rev !splits)
  with
  | () -> ()
  | exception Duplicate -> ()

(* ---------------- delete ---------------- *)

(* What the delete descent keeps of the leaf's parent: the routed
   entry's slot, and the child of the entry just below it (-1 when the
   routed entry is the least) — the left sibling an emptied leaf merges
   into. *)
type parent = { p_block : int; p_slot : int; p_count : int; p_left : int }

(* ... and of the leaf: the exact pair's slot (-1 when absent), the
   entry count, and the header fields a merge hands to the left sibling. *)
type leaf = { slot : int; n : int; l_right : int; l_high : (int * int) option; l_level : int }

type delete_step = Down of int * parent | At_leaf of leaf

let delete t ~key ~payload =
  (* descend with the exact pair, remembering the parent for the merge *)
  let rec descend block parent =
    let step =
      Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
          let h = header page in
          if is_leaf page h then
            At_leaf
              { slot = leaf_slot page key payload; n = count page; l_right = right page h;
                l_high = high page h; l_level = level page h }
          else begin
            let ref_key = ref_key page h in
            let slot = route page h key payload in
            let o = Page.item_off page slot in
            let left =
              floor_slot page ~ref_key ~strict:true
                (key_at page ~leaf:false ~ref_key o) (payload_at page ~leaf:false o)
            in
            Down
              ( child_at page o,
                { p_block = block; p_slot = slot; p_count = count page;
                  p_left = (if left < 0 then -1 else child_of page left) } )
          end)
    in
    match step with
    | At_leaf leaf -> (block, leaf, parent)
    | Down (child, p) -> descend child (Some p)
  in
  match descend t.root None with
  | _, { slot = -1; _ }, _ -> false
  | block, { slot; n; l_right; l_high; l_level }, parent ->
      let deltas = ref [ { d_block = block; d_new = false; d_op = Del slot } ] in
      let merged =
        match parent with
        | Some p when n = 1 && p.p_left >= 0 ->
            (* the leaf empties and has a left sibling under the same
               parent: absorb its right link and high key into the left
               sibling, drop the parent separator, and let the empty page
               leak (a right-link orphan, skipped by every traversal) *)
            let lb = p.p_left in
            let lb_header =
              Bufpool.with_page t.pool ~rel:t.rel ~block:lb (fun page ->
                  let h = header page in
                  header_item ~leaf:(is_leaf page h) ~level:(level page h) ~right:l_right
                    ~high:l_high ~ref_key:(ref_key page h))
            in
            deltas :=
              { d_block = p.p_block; d_new = false; d_op = Del p.p_slot }
              :: { d_block = lb; d_new = false; d_op = Upd (0, lb_header) }
              :: !deltas;
            if p.p_block = t.root && p.p_count = 2 && t.height >= 2 then begin
              (* the root would keep a single separator: collapse it onto
                 the surviving child, which is the left sibling *)
              deltas :=
                { d_block = 0; d_new = false;
                  d_op = Upd (0, meta_item ~root:lb ~height:(t.height - 1) ~nblocks:t.nblocks) }
                :: !deltas;
              t.root <- lb;
              t.height <- t.height - 1
            end;
            true
        | _ -> false
      in
      run_batch t (List.rev !deltas);
      t.entries <- t.entries - 1;
      t.deletes <- t.deletes + 1;
      if merged then begin
        t.merges <- t.merges + 1;
        if observed t then emit t (Bus.Index_merge { rel = t.rel; level = l_level })
      end;
      true

(* ---------------- reads ---------------- *)

let range t ~lo ~hi =
  t.lookups <- t.lookups + 1;
  if lo > hi then []
  else begin
    let acc = ref [] in
    walk_leaves t ~key:lo ~payload:min_int (fun page _ ->
        let beyond = ref false in
        for slot = 1 to Page.slot_count page - 1 do
          let o = Page.item_off page slot in
          if o >= 0 then begin
            let k = Page.get_int64_le page o in
            if k > hi then beyond := true
            else if k >= lo then acc := (k, Page.get_int64_le page (o + 8)) :: !acc
          end
        done;
        not !beyond);
    List.sort cmp_pair !acc
  end

let lookup t ~key = List.map snd (range t ~lo:key ~hi:key)

let mem t ~key ~payload =
  let found = ref false in
  walk_leaves t ~key ~payload (fun page _ ->
      found := leaf_slot page key payload >= 0;
      false);
  !found

(* The whole leaf chain is read first and [f] runs after the last pin,
   so [f] may itself use the buffer pool. *)
let iter t f =
  let leaves = ref [] in
  walk_leaves t ~key:min_int ~payload:min_int (fun page h ->
      leaves := entries page h :: !leaves;
      true);
  List.iter (List.iter (fun e -> f e.e_key e.e_payload)) (List.rev !leaves)

(* ---------------- structural check ---------------- *)

let check_invariants t =
  let fail fmt =
    Printf.ksprintf (fun m -> failwith (Printf.sprintf "Paged_btree rel %d: %s" t.rel m)) fmt
  in
  let pp (k, p) = Printf.sprintf "(%d,%d)" k p in
  let read block =
    Bufpool.with_page_ro t.pool ~rel:t.rel ~block (fun page -> decode page ~block)
  in
  let pairs nd = List.map (fun e -> (e.e_key, e.e_payload)) nd.nd_entries in
  (match Bufpool.with_page_ro t.pool ~rel:t.rel ~block:0 (fun page -> Page.read page 0) with
  | Some m when Bytes.equal m (meta_item ~root:t.root ~height:t.height ~nblocks:t.nblocks) -> ()
  | _ ->
      fail "metadata page disagrees with root %d, height %d, %d blocks" t.root t.height
        t.nblocks);
  (* top-down: levels, unique pairs, every pair within [separator, next
     separator) of its parent and below its own high key *)
  let leaves = ref [] in
  let rec visit block ~level ~lo ~hi =
    let nd = read block in
    if nd.nd_level <> level || nd.nd_leaf <> (level = 0) then
      fail "block %d is at level %d (leaf %b), expected level %d" block nd.nd_level
        nd.nd_leaf level;
    let prev = ref None in
    List.iter
      (fun kp ->
        (match !prev with
        | Some q when cmp_pair q kp >= 0 -> fail "block %d holds %s twice" block (pp kp)
        | _ -> ());
        prev := Some kp;
        (match lo with
        | Some l when cmp_pair kp l < 0 ->
            fail "block %d: %s is below its separator %s" block (pp kp) (pp l)
        | _ -> ());
        (match hi with
        | Some u when cmp_pair kp u >= 0 ->
            fail "block %d: %s is not below the next separator %s" block (pp kp) (pp u)
        | _ -> ());
        match nd.nd_high with
        | Some hk when cmp_pair kp hk >= 0 ->
            fail "block %d: %s is not below its high key %s" block (pp kp) (pp hk)
        | _ -> ())
      (pairs nd);
    if nd.nd_leaf then leaves := block :: !leaves
    else begin
      if nd.nd_entries = [] then fail "internal block %d has no entries" block;
      let rec children = function
        | [] -> ()
        | e :: rest ->
            let next = match rest with n :: _ -> Some (n.e_key, n.e_payload) | [] -> hi in
            visit e.e_child ~level:(level - 1) ~lo:(Some (e.e_key, e.e_payload)) ~hi:next;
            children rest
      in
      children nd.nd_entries
    end
  in
  visit t.root ~level:(t.height - 1) ~lo:None ~hi:None;
  let leaves = List.rev !leaves in
  (* the leaf chain: the same leaves in the same order, ascending, and
     holding [entry_count] pairs *)
  let chain = ref [] and last = ref None and total = ref 0 in
  let rec walk block steps =
    if block >= 0 then begin
      if steps > t.nblocks then fail "leaf chain does not end";
      let nd = read block in
      List.iter
        (fun kp ->
          (match !last with
          | Some q when cmp_pair q kp >= 0 ->
              fail "leaf chain does not ascend at block %d: %s after %s" block (pp kp) (pp q)
          | _ -> ());
          last := Some kp;
          incr total)
        (pairs nd);
      chain := block :: !chain;
      walk nd.nd_right (steps + 1)
    end
  in
  walk (List.hd leaves) 0;
  if List.rev !chain <> leaves then fail "leaf chain differs from the tree's leaves";
  if !total <> t.entries then
    fail "leaf chain holds %d entries, entry_count is %d" !total t.entries

let entry_count t = t.entries
let height t = t.height
let node_count t = t.nblocks - 1
let rel t = t.rel

let stats t =
  {
    inserts = t.inserts;
    deletes = t.deletes;
    splits = t.splits;
    merges = t.merges;
    lookups = t.lookups;
  }
