open Vectors

type id_triple = Dict.Term_dict.id_triple = {
  s : int;
  p : int;
  o : int;
}

(* Telemetry: buffered-mutation counters, pending-size gauges, and a
   flush cost profile.  Every hook is one flag read while telemetry is
   off. *)
let m_ins_buf = Telemetry.Metrics.counter "hexastore.delta.insert.buffered"
let m_del_buf = Telemetry.Metrics.counter "hexastore.delta.delete.buffered"
let m_resurrect = Telemetry.Metrics.counter "hexastore.delta.insert.resurrected"
let m_unbuffer = Telemetry.Metrics.counter "hexastore.delta.delete.unbuffered"
let m_flush = Telemetry.Metrics.counter "hexastore.delta.flush.calls"
let m_flush_auto = Telemetry.Metrics.counter "hexastore.delta.flush.auto"
let m_flush_rebuild = Telemetry.Metrics.counter "hexastore.delta.flush.rebuild"
let m_compact = Telemetry.Metrics.counter "hexastore.delta.compact.calls"
let m_merged = Telemetry.Metrics.counter "hexastore.delta.lookup.merged"
let g_pending_ins = Telemetry.Metrics.gauge "hexastore.delta.pending_inserts"
let g_pending_del = Telemetry.Metrics.gauge "hexastore.delta.pending_deletes"
let m_flush_us = Telemetry.Metrics.histogram "hexastore.delta.flush_duration_us"
let m_flush_batch = Telemetry.Metrics.histogram "hexastore.delta.flush_batch"

(* Concurrency protocol (see DESIGN.md §13): one writer stages into the
   buffers and flushes; readers on other domains never touch the live
   buffers — they [pin] a snapshot (frozen base + private buffer copies)
   and release it when done.  [sync] backs that handshake: buffer
   mutation and the pin's copy both hold [lock], and a flush (which
   mutates the shared base the snapshots still read) waits under [cond]
   until every pin is released, while new pins wait out an in-progress
   flush. *)
type sync = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable pins : int;
  mutable flushing : bool;
}

let make_sync () =
  { lock = Mutex.create (); cond = Condition.create (); pins = 0; flushing = false }

(* Invariants (checked by [Check.Invariant.delta]):
   - no triple is in both [inserts] and the base store;
   - [deletes] is a subset of the base store;
   - [inserts] and [deletes] are disjoint (implied by the two above). *)
type t = {
  base : Hexastore.t;
  inserts : (id_triple, unit) Hashtbl.t;
  deletes : (id_triple, unit) Hashtbl.t;
  mutable insert_threshold : int;
  mutable delete_threshold : int;
  sync : sync;
}

let default_insert_threshold = 4096
let default_delete_threshold = 1024

let clamp_threshold n = max 1 n

let of_base ?(insert_threshold = default_insert_threshold)
    ?(delete_threshold = default_delete_threshold) base =
  {
    base;
    inserts = Hashtbl.create 64;
    deletes = Hashtbl.create 16;
    insert_threshold = clamp_threshold insert_threshold;
    delete_threshold = clamp_threshold delete_threshold;
    sync = make_sync ();
  }

let with_lock t f =
  Mutex.lock t.sync.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sync.lock) f

(* Run [f] with the base frozen for everyone else: blocks new pins,
   waits out existing ones, then lets [f] mutate the shared base. *)
let with_base_frozen t f =
  with_lock t (fun () ->
      while t.sync.flushing do
        Condition.wait t.sync.cond t.sync.lock
      done;
      t.sync.flushing <- true;
      while t.sync.pins > 0 do
        Condition.wait t.sync.cond t.sync.lock
      done;
      Fun.protect
        ~finally:(fun () ->
          t.sync.flushing <- false;
          Condition.broadcast t.sync.cond)
        f)

let create ?dict ?insert_threshold ?delete_threshold () =
  of_base ?insert_threshold ?delete_threshold (Hexastore.create ?dict ())

let base t = t.base
let dict t = Hexastore.dict t.base
let pending_inserts t = Hashtbl.length t.inserts
let pending_deletes t = Hashtbl.length t.deletes
let insert_threshold t = t.insert_threshold
let delete_threshold t = t.delete_threshold

let set_thresholds ?insert ?delete t =
  (match insert with Some n -> t.insert_threshold <- clamp_threshold n | None -> ());
  match delete with Some n -> t.delete_threshold <- clamp_threshold n | None -> ()

let size t = Hexastore.size t.base + Hashtbl.length t.inserts - Hashtbl.length t.deletes

let note_pending t =
  if !Telemetry.Config.enabled then begin
    Telemetry.Metrics.set g_pending_ins (float_of_int (Hashtbl.length t.inserts));
    Telemetry.Metrics.set g_pending_del (float_of_int (Hashtbl.length t.deletes))
  end

(* --- flush ------------------------------------------------------------ *)

(* A flush applies its tombstones with one [Hexastore.remove_bulk_ids]
   and its inserts with one [add_bulk_ids]: each sorts its batch once
   and merges into (or compacts) every touched list, pair vector and
   header vector in one linear pass.  A batch this large relative to the
   (post-delete) base touches most of the store anyway, so it triggers a
   full rebuild instead: the whole merged set re-loaded into a fresh
   store from one sorted run, O((N + k) log (N + k)). *)
let rebuild_factor = 8

let drain_pending t =
  ignore (Hexastore.remove_bulk_ids t.base (Array.of_seq (Hashtbl.to_seq_keys t.deletes)) : int);
  Hashtbl.reset t.deletes;
  let batch = Array.make (Hashtbl.length t.inserts) { s = 0; p = 0; o = 0 } in
  let i = ref 0 in
  Hashtbl.iter
    (fun tr () ->
      batch.(!i) <- tr;
      incr i)
    t.inserts;
  Hashtbl.reset t.inserts;
  batch

let rebuild_base t batch =
  Telemetry.Metrics.incr m_flush_rebuild;
  let n = Hexastore.size t.base in
  let all = Array.make (n + Array.length batch) { s = 0; p = 0; o = 0 } in
  let i = ref 0 in
  ignore
    (Hexastore.fold
       (fun tr () ->
         all.(!i) <- tr;
         incr i)
       t.base ());
  Array.blit batch 0 all n (Array.length batch);
  let fresh = Hexastore.create ~dict:(Hexastore.dict t.base) ~repr:(Hexastore.repr t.base) () in
  ignore (Hexastore.add_bulk_ids fresh all);
  (* Adopt in place so aliases to the base (e.g. a dataset graph fronted
     by this delta) keep seeing the store's contents. *)
  Hexastore.replace_contents t.base ~from:fresh

let flush_with ?(auto = false) ~force_rebuild t =
  let timed = !Telemetry.Config.enabled in
  let started = if timed then Telemetry.Clock.now () else 0. in
  let pending, rebuild =
    Telemetry.Trace.with_span "delta.flush" @@ fun () ->
    with_base_frozen t (fun () ->
        let pending = Hashtbl.length t.inserts + Hashtbl.length t.deletes in
        Telemetry.Metrics.incr m_flush;
        Telemetry.Metrics.observe m_flush_batch pending;
        let batch = drain_pending t in
        let rebuild =
          force_rebuild || Array.length batch * rebuild_factor >= Hexastore.size t.base
        in
        if rebuild then rebuild_base t batch else ignore (Hexastore.add_bulk_ids t.base batch);
        (pending, rebuild))
  in
  Telemetry.Events.emit (Telemetry.Events.Delta_flush { pending; rebuild; auto });
  note_pending t;
  if timed then
    Telemetry.Metrics.observe m_flush_us
      (int_of_float ((Telemetry.Clock.now () -. started) *. 1e6))

let flush t =
  if Hashtbl.length t.inserts > 0 || Hashtbl.length t.deletes > 0 then
    flush_with ~force_rebuild:false t

let compact t =
  Telemetry.Metrics.incr m_compact;
  Telemetry.Events.emit
    (Telemetry.Events.Delta_compact
       { pending = Hashtbl.length t.inserts + Hashtbl.length t.deletes });
  flush_with ~force_rebuild:true t

let maybe_auto_flush t =
  if
    Hashtbl.length t.inserts >= t.insert_threshold
    || Hashtbl.length t.deletes >= t.delete_threshold
  then begin
    Telemetry.Metrics.incr m_flush_auto;
    flush_with ~auto:true ~force_rebuild:false t
  end

(* --- mutation --------------------------------------------------------- *)

(* Buffer staging holds [sync.lock] so a concurrent [pin]'s
   [Hashtbl.copy] never observes a half-resized table; the auto-flush
   check runs after the lock is released ([flush_with] re-enters the
   sync protocol itself). *)
let add_ids t tr =
  let outcome =
    with_lock t (fun () ->
        if Hashtbl.mem t.inserts tr then `Noop
        else if Hexastore.mem_ids t.base tr then
          if Hashtbl.mem t.deletes tr then begin
            (* Resurrection: cancel the pending tombstone instead of
               buffering an insert the base already holds. *)
            Hashtbl.remove t.deletes tr;
            Telemetry.Metrics.incr m_resurrect;
            `Staged
          end
          else `Noop
        else begin
          Hashtbl.replace t.inserts tr ();
          Telemetry.Metrics.incr m_ins_buf;
          `Buffered
        end)
  in
  (match outcome with
  | `Noop -> ()
  | `Staged -> note_pending t
  | `Buffered ->
      note_pending t;
      maybe_auto_flush t);
  outcome <> `Noop

let remove_ids t tr =
  let outcome =
    with_lock t (fun () ->
        if Hashtbl.mem t.inserts tr then begin
          (* The triple only ever lived in the buffer: dropping the
             buffered insert deletes it without touching the base. *)
          Hashtbl.remove t.inserts tr;
          Telemetry.Metrics.incr m_unbuffer;
          `Staged
        end
        else if Hexastore.mem_ids t.base tr && not (Hashtbl.mem t.deletes tr) then begin
          Hashtbl.replace t.deletes tr ();
          Telemetry.Metrics.incr m_del_buf;
          `Buffered
        end
        else `Noop)
  in
  (match outcome with
  | `Noop -> ()
  | `Staged -> note_pending t
  | `Buffered ->
      note_pending t;
      maybe_auto_flush t);
  outcome <> `Noop

let mem_ids t tr =
  Hashtbl.mem t.inserts tr
  || (Hexastore.mem_ids t.base tr && not (Hashtbl.mem t.deletes tr))

let add_bulk_ids t batch =
  (* Pending deletes must land first so a batch re-inserting a tombstoned
     triple counts it as fresh; then the base's own sort-and-append bulk
     path takes the whole batch at once (with the base frozen, since
     pinned snapshots read it directly). *)
  flush t;
  with_base_frozen t (fun () -> Hexastore.add_bulk_ids t.base batch)

(* --- merged lookup ---------------------------------------------------- *)

(* Matching buffer entries, materialised and sorted at call time so the
   lazy merged sequence never reads a mutable hash table. *)
let pending_matching table cmp pat =
  let hits = Hashtbl.fold (fun tr () acc -> if Pattern.matches pat tr then tr :: acc else acc) table [] in
  let arr = Array.of_list hits in
  Array.sort cmp arr;
  Array.to_seq arr

let lookup t pat =
  if Hashtbl.length t.inserts = 0 && Hashtbl.length t.deletes = 0 then
    Hexastore.lookup t.base pat
  else begin
    Telemetry.Metrics.incr m_merged;
    (* A pattern's matches agree on its bound positions, so comparing
       whole triples in the serving index's order ranks them exactly as
       the base scan emits them. *)
    let cmp = Ordering.compare_triples (Ordering.for_shape (Pattern.shape pat)) in
    let base_seq = Hexastore.lookup t.base pat in
    let dels = pending_matching t.deletes cmp pat in
    let inss = pending_matching t.inserts cmp pat in
    Merge.union_seq_by ~cmp (Merge.diff_seq_by ~cmp base_seq dels) inss
  end

let count t pat =
  match Pattern.shape pat with
  | Pattern.All ->
      let tr = { s = Option.get pat.s; p = Option.get pat.p; o = Option.get pat.o } in
      if mem_ids t tr then 1 else 0
  | _ ->
      let pending table =
        Hashtbl.fold (fun tr () acc -> if Pattern.matches pat tr then acc + 1 else acc) table 0
      in
      Hexastore.count t.base pat + pending t.inserts - pending t.deletes

let fold f t acc = Seq.fold_left (fun acc tr -> f tr acc) acc (lookup t Pattern.wildcard)

(* Merged sorted scans: the base's seekable scan stays the backbone;
   buffered inserts are snapshot-sorted under the serving ordering's
   comparator and merged in, tombstones filtered out (an order-preserving
   filter, so the merged stream stays sorted on the scan position). *)
let scan_sorted t pat pos =
  match Hexastore.scan_sorted t.base pat pos with
  | None -> None
  | Some (ord, base_seek) ->
      if Hashtbl.length t.inserts = 0 && Hashtbl.length t.deletes = 0 then Some (ord, base_seek)
      else begin
        Telemetry.Metrics.incr m_merged;
        let cmp = Ordering.compare_triples ord in
        let value_of (tr : id_triple) =
          match pos with Pattern.Subj -> tr.s | Pattern.Pred -> tr.p | Pattern.Obj -> tr.o
        in
        let ins =
          let hits =
            Hashtbl.fold
              (fun tr () acc -> if Pattern.matches pat tr then tr :: acc else acc)
              t.inserts []
          in
          let arr = Array.of_list hits in
          Array.sort cmp arr;
          arr
        in
        let n_ins = Array.length ins in
        (* Matches agree on the bound positions (a prefix of the serving
           ordering before [pos]), so [cmp] order is [pos]-value order:
           a binary search by scan value finds the merge suffix. *)
        let ins_from k =
          let lo = ref 0 and hi = ref n_ins in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if value_of ins.(mid) < k then lo := mid + 1 else hi := mid
          done;
          let rec aux i () = if i >= n_ins then Seq.Nil else Seq.Cons (ins.(i), aux (i + 1)) in
          aux !lo
        in
        let seek k =
          let base = Seq.filter (fun tr -> not (Hashtbl.mem t.deletes tr)) (base_seek k) in
          Merge.union_seq_by ~cmp base (ins_from k)
        in
        Some (ord, seek)
      end

(* Splitting reuses the base's boundary keys: buffered inserts merge
   into whichever range their scan value lands in, preserving both
   contiguity and per-range sortedness, so concatenating the split still
   reproduces the unsplit merged stream exactly.  (Insert-heavy deltas
   can unbalance the parts; that costs speedup, never correctness.) *)
let scan_bounds t pat pos ~parts = Hexastore.scan_bounds t.base pat pos ~parts

let scan_split t pat pos ~parts =
  match scan_sorted t pat pos with
  | None -> None
  | Some (ord, seek) ->
      Some (ord, Hexastore.split_cursor pos (scan_bounds t pat pos ~parts) seek)

(* --- snapshot pinning -------------------------------------------------- *)

let pin t =
  with_lock t (fun () ->
      while t.sync.flushing do
        Condition.wait t.sync.cond t.sync.lock
      done;
      t.sync.pins <- t.sync.pins + 1;
      let view =
        {
          base = t.base;
          inserts = Hashtbl.copy t.inserts;
          deletes = Hashtbl.copy t.deletes;
          (* A snapshot is read-only by protocol; max out the thresholds
             so even a misuse can never auto-flush into the shared base. *)
          insert_threshold = max_int;
          delete_threshold = max_int;
          sync = make_sync ();
        }
      in
      let released = ref false in
      let unpin () =
        with_lock t (fun () ->
            if not !released then begin
              released := true;
              t.sync.pins <- t.sync.pins - 1;
              if t.sync.pins = 0 then Condition.broadcast t.sync.cond
            end)
      in
      (view, unpin))

let pins t = t.sync.pins

let iter_pending_inserts f t = Hashtbl.iter (fun tr () -> f tr) t.inserts
let iter_pending_deletes f t = Hashtbl.iter (fun tr () -> f tr) t.deletes

(* --- term-level API --------------------------------------------------- *)

let add t triple = add_ids t (Dict.Term_dict.encode_triple (dict t) triple)

let remove t triple =
  match Dict.Term_dict.find_triple (dict t) triple with
  | None -> false
  | Some ids -> remove_ids t ids

let mem t triple =
  match Dict.Term_dict.find_triple (dict t) triple with
  | None -> false
  | Some ids -> mem_ids t ids

let find t ?s ?p ?o () =
  let d = dict t in
  let resolve = function
    | None -> Some None
    | Some term -> (
        match Dict.Term_dict.find_term d term with None -> None | Some id -> Some (Some id))
  in
  match (resolve s, resolve p, resolve o) with
  | Some s, Some p, Some o ->
      Seq.map (Dict.Term_dict.decode_triple d) (lookup t { Pattern.s; p; o })
  | _ -> Seq.empty

let to_triples t =
  List.of_seq (Seq.map (Dict.Term_dict.decode_triple (dict t)) (lookup t Pattern.wildcard))

(* --- accounting ------------------------------------------------------- *)

(* Each pending entry costs a boxed 4-word triple record plus ~4 words of
   hash-bucket overhead. *)
let memory_words t =
  Hexastore.memory_words t.base
  + (8 * (Hashtbl.length t.inserts + Hashtbl.length t.deletes))
  + 32
