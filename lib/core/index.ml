(* An ordering is either the mutable hash-of-pair-vectors build form or
   a flat compressed CSR layout: one sorted header stream, a packed
   row-pointer stream into one concatenated key stream, and a second
   packed row-pointer stream into one concatenated terminal stream.
   The flat form exists because the store's memory is dominated by the
   per-object overhead of hundreds of thousands of tiny lists and
   vectors, not by element widths — flattening removes the objects,
   the codec then shrinks the payload.  All reads go through
   [Sorted_ivec] slices / [Pair_vector] views, so the query layers
   never see the difference; mutation of a flat index raises, and the
   store swaps representations wholesale instead. *)

type hashed = {
  headers : (int, Pair_vector.t) Hashtbl.t;
  sorted : Vectors.Sorted_ivec.t;
      (* Header ids, maintained sorted on every add/remove so that
         merge-scans over a whole ordering can stream headers without
         re-sorting the hash keys (O(h log h)) per call. *)
}

type flat = {
  n_headers : int;
  fhdr_s : Vectors.Sorted_ivec.stream; (* h sorted header ids *)
  fheaders : Vectors.Sorted_ivec.t; (* whole-stream slice of fhdr_s *)
  fkey_off : Vectors.Sorted_ivec.stream; (* h+1 offsets into fkeys *)
  fkeys : Vectors.Sorted_ivec.stream; (* E second-level keys, one sorted run per header *)
  flist_off : Vectors.Sorted_ivec.stream; (* E+1 offsets into fterms *)
  fterms : Vectors.Sorted_ivec.stream; (* N terminal ids, one sorted run per (header,key) *)
}

type t = Hashed of hashed | Flat of flat

let create ?(initial_headers = 64) () =
  Hashed { headers = Hashtbl.create initial_headers; sorted = Vectors.Sorted_ivec.create () }

let is_flat = function Flat _ -> true | Hashed _ -> false

let header_count = function Hashed h -> Hashtbl.length h.headers | Flat f -> f.n_headers

let frozen op = invalid_arg ("Index." ^ op ^ ": flat compressed index is immutable")

(* The r-th header's pair vector, as a view over the streams. *)
let flat_vector f r =
  let k0 = Vectors.Sorted_ivec.stream_get f.fkey_off r in
  let k1 = Vectors.Sorted_ivec.stream_get f.fkey_off (r + 1) in
  let l0 = Vectors.Sorted_ivec.stream_get f.flist_off k0 in
  let l1 = Vectors.Sorted_ivec.stream_get f.flist_off k1 in
  Pair_vector.view
    ~keys:(Vectors.Sorted_ivec.slice f.fkeys ~off:k0 ~len:(k1 - k0))
    ~total:(l1 - l0)
    ~payload:(fun j ->
      let a = Vectors.Sorted_ivec.stream_get f.flist_off (k0 + j) in
      let b = Vectors.Sorted_ivec.stream_get f.flist_off (k0 + j + 1) in
      Vectors.Sorted_ivec.slice f.fterms ~off:a ~len:(b - a))

let flat_rank f h =
  let r = Vectors.Sorted_ivec.index_geq f.fheaders h in
  if r < f.n_headers && Vectors.Sorted_ivec.get f.fheaders r = h then Some r else None

let find_vector t h =
  match t with
  | Hashed t -> Hashtbl.find_opt t.headers h
  | Flat f -> ( match flat_rank f h with Some r -> Some (flat_vector f r) | None -> None)

let get_or_create_vector t h =
  match t with
  | Flat _ -> frozen "get_or_create_vector"
  | Hashed t -> (
      match Hashtbl.find_opt t.headers h with
      | Some v -> v
      | None ->
          let v = Pair_vector.create () in
          Hashtbl.add t.headers h v;
          ignore (Vectors.Sorted_ivec.add t.sorted h);
          v)

let find_list t first second =
  match t with
  | Hashed _ -> (
      match find_vector t first with None -> None | Some v -> Pair_vector.find v second)
  | Flat f -> (
      (* Straight to the terminal slice: two packed-offset reads after
         the two key binary searches, no intermediate view. *)
      match flat_rank f first with
      | None -> None
      | Some r ->
          let k0 = Vectors.Sorted_ivec.stream_get f.fkey_off r in
          let k1 = Vectors.Sorted_ivec.stream_get f.fkey_off (r + 1) in
          let keys = Vectors.Sorted_ivec.slice f.fkeys ~off:k0 ~len:(k1 - k0) in
          let j = Vectors.Sorted_ivec.index_geq keys second in
          if j < k1 - k0 && Vectors.Sorted_ivec.get keys j = second then begin
            let a = Vectors.Sorted_ivec.stream_get f.flist_off (k0 + j) in
            let b = Vectors.Sorted_ivec.stream_get f.flist_off (k0 + j + 1) in
            Some (Vectors.Sorted_ivec.slice f.fterms ~off:a ~len:(b - a))
          end
          else None)

let remove_header t h =
  match t with
  | Flat _ -> frozen "remove_header"
  | Hashed t ->
      if Hashtbl.mem t.headers h then begin
        Hashtbl.remove t.headers h;
        ignore (Vectors.Sorted_ivec.remove t.sorted h);
        true
      end
      else false

(* --- shared terminal lists and point maintenance ---------------------- *)

let get_or_create_list table key =
  match Hashtbl.find_opt table key with
  | Some l -> l
  | None ->
      let l = Vectors.Sorted_ivec.create ~capacity:2 () in
      Hashtbl.add table key l;
      l

let link t ~first ~second l =
  let v = get_or_create_vector t first in
  ignore (Pair_vector.get_or_insert v second (fun () -> l));
  Pair_vector.bump_total v 1

let unlink t ~first ~second ~list_empty =
  match find_vector t first with
  | None -> invalid_arg "Index.unlink: unknown header"
  | Some v ->
      Pair_vector.bump_total v (-1);
      if list_empty then begin
        ignore (Pair_vector.remove v second);
        if Pair_vector.length v = 0 then ignore (remove_header t first)
      end

let iter f t =
  match t with
  | Hashed t -> Hashtbl.iter f t.headers
  | Flat fl ->
      for r = 0 to fl.n_headers - 1 do
        f (Vectors.Sorted_ivec.get fl.fheaders r) (flat_vector fl r)
      done

let iter_sorted f t =
  match t with
  | Hashed t -> Vectors.Sorted_ivec.iter (fun h -> f h (Hashtbl.find t.headers h)) t.sorted
  | Flat _ -> iter f t (* flat iteration is already in ascending header order *)

let headers t =
  match t with
  | Hashed t -> Vectors.Sorted_ivec.copy t.sorted
  | Flat f -> Vectors.Sorted_ivec.copy f.fheaders

let headers_view = function Hashed t -> t.sorted | Flat f -> f.fheaders

let total = function
  | Hashed t -> Hashtbl.fold (fun _ v acc -> acc + Pair_vector.total v) t.headers 0
  | Flat f -> Vectors.Sorted_ivec.stream_length f.fterms

(* Exact accounting.  Hashed: the table's own array + 4 words per
   entry (bucket cons: header, key, value, next) + each pair vector.
   Flat: the four streams, the header slice, and the spine records. *)
let memory_words = function
  | Hashed t ->
      let stats = Hashtbl.stats t.headers in
      Hashtbl.fold (fun _ v acc -> acc + 4 + Pair_vector.memory_words v) t.headers
        (stats.Hashtbl.num_buckets + 4)
      + Vectors.Sorted_ivec.memory_words t.sorted
  | Flat f ->
      2 (* Flat box *) + 8 (* flat record *)
      + Vectors.Sorted_ivec.memory_words f.fheaders
      + Vectors.Sorted_ivec.stream_memory_words f.fhdr_s
      + Vectors.Sorted_ivec.stream_memory_words f.fkey_off
      + Vectors.Sorted_ivec.stream_memory_words f.fkeys
      + Vectors.Sorted_ivec.stream_memory_words f.flist_off
      + Vectors.Sorted_ivec.stream_memory_words f.fterms

(* Rebuild any index as a flat compressed one: five bit-packed streams,
   so header, key, terminal and offset reads all stay O(1). *)
let compress t =
  let h = header_count t in
  let e = ref 0 and n = ref 0 in
  iter
    (fun _ v ->
      e := !e + Pair_vector.length v;
      n := !n + Pair_vector.total v)
    t;
  let e = !e and n = !n in
  let hdrs = Array.make (max h 1) 0 in
  let key_off = Array.make (h + 1) 0 in
  let keys = Array.make (max e 1) 0 in
  let list_off = Array.make (e + 1) 0 in
  let terms = Array.make (max n 1) 0 in
  let hi = ref 0 and ei = ref 0 and ni = ref 0 in
  iter_sorted
    (fun hdr v ->
      hdrs.(!hi) <- hdr;
      key_off.(!hi) <- !ei;
      incr hi;
      Pair_vector.iter
        (fun key list ->
          keys.(!ei) <- key;
          list_off.(!ei) <- !ni;
          incr ei;
          Vectors.Sorted_ivec.iter
            (fun x ->
              terms.(!ni) <- x;
              incr ni)
            list)
        v)
    t;
  key_off.(h) <- e;
  list_off.(e) <- n;
  assert (!hi = h && !ei = e && !ni = n);
  let fhdr_s = Vectors.Sorted_ivec.stream_of_array (Array.sub hdrs 0 h) in
  Flat
    {
      n_headers = h;
      fhdr_s;
      fheaders = Vectors.Sorted_ivec.slice fhdr_s ~off:0 ~len:h;
      fkey_off = Vectors.Sorted_ivec.stream_of_array key_off;
      fkeys = Vectors.Sorted_ivec.stream_of_array (Array.sub keys 0 e);
      flist_off = Vectors.Sorted_ivec.stream_of_array list_off;
      fterms = Vectors.Sorted_ivec.stream_of_array (Array.sub terms 0 n);
    }

let block_violations = function
  | Hashed _ -> []
  | Flat f ->
      List.concat_map
        (fun (name, s) ->
          List.map
            (fun e -> name ^ ": " ^ e)
            (Vectors.Sorted_ivec.stream_validate s))
        [
          ("headers", f.fhdr_s);
          ("key_off", f.fkey_off);
          ("keys", f.fkeys);
          ("list_off", f.flist_off);
          ("terms", f.fterms);
        ]

let check_invariant t =
  (match t with
  | Hashed h ->
      Vectors.Sorted_ivec.check_invariant h.sorted;
      assert (Vectors.Sorted_ivec.length h.sorted = Hashtbl.length h.headers);
      Vectors.Sorted_ivec.iter (fun hd -> assert (Hashtbl.mem h.headers hd)) h.sorted
  | Flat f ->
      Vectors.Sorted_ivec.check_invariant f.fheaders;
      assert (Vectors.Sorted_ivec.length f.fheaders = f.n_headers);
      assert (block_violations t = []));
  iter (fun _ v -> Pair_vector.check_invariant v) t

(* --- batch maintenance --------------------------------------------------- *)

(* A batch defers every shifting edit to one merge per structure.  While
   it is open, a new header or key that sorts after everything already
   present is appended at once (the bulk load's common case); one that
   sorts lower is staged and merged in by [commit].  Header vectors and
   pair vectors are therefore briefly incomplete: only the batch's own
   pass may read the index until [commit]. *)
type batch = {
  idx : hashed;
  new_headers : Vectors.Dynarray_int.t; (* created below the header maximum *)
  mutable links : (int * Vectors.Sorted_ivec.t) list;
      (* Pair_key (first, second) of new lists keyed below their vector's last key *)
  dropped : Vectors.Dynarray_int.t; (* Pair_key (first, second) of emptied lists *)
}

let batch = function
  | Flat _ -> frozen "batch"
  | Hashed idx ->
      {
        idx;
        new_headers = Vectors.Dynarray_int.create ();
        links = [];
        dropped = Vectors.Dynarray_int.create ();
      }

let stage_link b ~first ~second ~fresh ~n l =
  let v =
    match Hashtbl.find_opt b.idx.headers first with
    | Some v -> v
    | None ->
        let v = Pair_vector.create () in
        Hashtbl.add b.idx.headers first v;
        let hs = b.idx.sorted in
        if Vectors.Sorted_ivec.is_empty hs || first > Vectors.Sorted_ivec.max_elt hs then
          ignore (Vectors.Sorted_ivec.add hs first)
        else Vectors.Dynarray_int.push b.new_headers first;
        v
  in
  if fresh then begin
    let len = Pair_vector.length v in
    if len = 0 || second > Pair_vector.key_at v (len - 1) then
      ignore (Pair_vector.get_or_insert v second (fun () -> l))
    else b.links <- (Vectors.Pair_key.make first second, l) :: b.links
  end;
  Pair_vector.bump_total v n

let stage_unlink b ~first ~second ~n ~list_empty =
  match Hashtbl.find_opt b.idx.headers first with
  | None -> invalid_arg "Index.stage_unlink: unknown header"
  | Some v ->
      Pair_vector.bump_total v (-n);
      if list_empty then Vectors.Dynarray_int.push b.dropped (Vectors.Pair_key.make first second)

(* [iter_groups n same f] calls [f i len] on each maximal run
   [i, i+len) of positions [j] with [same i j]. *)
let iter_groups n same f =
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && same !i !j do
      incr j
    done;
    f !i (!j - !i);
    i := !j
  done

let sorted_ints d =
  let a = Vectors.Dynarray_int.to_array d in
  Array.sort Int.compare a;
  a

let commit b =
  let h = b.idx in
  let vector first = Hashtbl.find h.headers first in
  if b.links <> [] then begin
    let staged = Array.of_list b.links in
    Array.sort (fun (x, _) (y, _) -> Int.compare x y) staged;
    let keys = Array.map (fun (k, _) -> Vectors.Pair_key.snd k) staged in
    let lists = Array.map snd staged in
    let first i = Vectors.Pair_key.fst (fst staged.(i)) in
    iter_groups (Array.length staged)
      (fun i j -> first i = first j)
      (fun pos len -> Pair_vector.insert_sorted (vector (first pos)) keys lists ~pos ~len)
  end;
  if not (Vectors.Dynarray_int.is_empty b.new_headers) then begin
    let hs = sorted_ints b.new_headers in
    Vectors.Sorted_ivec.insert_sorted h.sorted hs ~pos:0 ~len:(Array.length hs)
  end;
  if not (Vectors.Dynarray_int.is_empty b.dropped) then begin
    let dropped = sorted_ints b.dropped in
    let keys = Array.map Vectors.Pair_key.snd dropped in
    let first i = Vectors.Pair_key.fst dropped.(i) in
    let gone = Vectors.Dynarray_int.create () in
    iter_groups (Array.length dropped)
      (fun i j -> first i = first j)
      (fun pos len ->
        let v = vector (first pos) in
        Pair_vector.remove_sorted v keys ~pos ~len;
        if Pair_vector.length v = 0 then begin
          Hashtbl.remove h.headers (first pos);
          Vectors.Dynarray_int.push gone (first pos)
        end);
    (* Groups run in ascending header order, so [gone] is sorted. *)
    let gone = Vectors.Dynarray_int.to_array gone in
    Vectors.Sorted_ivec.remove_sorted h.sorted gone ~pos:0 ~len:(Array.length gone)
  end;
  (* Debug hook (see {!Debug}): a batch may have touched any header, so
     re-validate the whole index — header vector and every pair vector. *)
  if !Debug.enabled then check_invariant (Hashed h)

(* --- bulk passes over one list family -------------------------------- *)

let link_span = function
  | Ordering.Spo -> "index.bulk.link.spo"
  | Ordering.Sop -> "index.bulk.link.sop"
  | Ordering.Pso -> "index.bulk.link.pso"
  | Ordering.Pos -> "index.bulk.link.pos"
  | Ordering.Osp -> "index.bulk.link.osp"
  | Ordering.Ops -> "index.bulk.link.ops"

let unlink_span = function
  | Ordering.Spo -> "index.bulk.unlink.spo"
  | Ordering.Sop -> "index.bulk.unlink.sop"
  | Ordering.Pso -> "index.bulk.unlink.pso"
  | Ordering.Pos -> "index.bulk.unlink.pos"
  | Ordering.Osp -> "index.bulk.unlink.osp"
  | Ordering.Ops -> "index.bulk.unlink.ops"

let sort_in ord run =
  let cmp = Ordering.compare_triples ord in
  let sorted = ref true in
  for i = 1 to Array.length run - 1 do
    if cmp run.(i - 1) run.(i) > 0 then sorted := false
  done;
  if not !sorted then
    Telemetry.Trace.with_span "index.bulk.sort" (fun () -> Array.stable_sort cmp run)

let sort_run ord ~keep triples =
  Telemetry.Trace.with_span "index.bulk.sort" (fun () ->
      let cmp = Ordering.compare_triples ord in
      let a = Array.copy triples in
      Array.stable_sort cmp a;
      let w = ref 0 in
      Array.iteri
        (fun i tr ->
          if (i = 0 || cmp a.(i - 1) tr <> 0) && keep tr then begin
            a.(!w) <- tr;
            incr w
          end)
        a;
      if !w = Array.length a then a else Array.sub a 0 !w)

(* One pass of a bulk edit: walk the run in [ord] order, one group per
   (first, second) pair, edit that pair's terminal list once, and stage
   the group's link edits on every target index (keyed (first, second)
   when it is [ord] itself, (second, first) when it is the twin). *)
let family_pass ~span ord targets run edit =
  Telemetry.Trace.with_span span (fun () ->
      sort_in ord run;
      let first = Ordering.first ord and second = Ordering.second ord in
      let third = Ordering.third ord in
      let batches = List.map (fun (o, idx) -> (batch idx, not (Ordering.equal o ord))) targets in
      let buf = ref (Array.make 16 0) in
      iter_groups (Array.length run)
        (fun i j ->
          first run.(i) = first run.(j) && second run.(i) = second run.(j))
        (fun i g ->
          if g > Array.length !buf then buf := Array.make (2 * g) 0;
          for k = 0 to g - 1 do
            Array.unsafe_set !buf k (third run.(i + k))
          done;
          let a = first run.(i) and b = second run.(i) in
          let stage = edit (Vectors.Pair_key.make a b) !buf g in
          List.iter
            (fun (bt, swapped) ->
              if swapped then stage bt ~first:b ~second:a else stage bt ~first:a ~second:b)
            batches);
      Telemetry.Trace.with_span "index.bulk.merge" (fun () ->
          List.iter (fun (bt, _) -> commit bt) batches))

let add_run ord lists targets run =
  (* Into an empty family (a fresh store's load) every group's list is
     new: skip the probe that would miss. *)
  let empty = Hashtbl.length lists = 0 in
  family_pass ~span:(link_span ord) ord targets run (fun key buf g ->
      let l =
        match if empty then None else Hashtbl.find_opt lists key with
        | Some l -> l
        | None ->
            let l = Vectors.Sorted_ivec.create ~capacity:(max 2 g) () in
            Hashtbl.add lists key l;
            l
      in
      let fresh = Vectors.Sorted_ivec.is_empty l in
      Vectors.Sorted_ivec.insert_sorted l buf ~pos:0 ~len:g;
      if !Debug.enabled then Vectors.Sorted_ivec.check_invariant l;
      fun bt ~first ~second -> stage_link bt ~first ~second ~fresh ~n:g l)

let remove_run ord lists targets run =
  family_pass ~span:(unlink_span ord) ord targets run (fun key buf g ->
      let l = Hashtbl.find lists key in
      Vectors.Sorted_ivec.remove_sorted l buf ~pos:0 ~len:g;
      if !Debug.enabled then Vectors.Sorted_ivec.check_invariant l;
      let list_empty = Vectors.Sorted_ivec.is_empty l in
      if list_empty then Hashtbl.remove lists key;
      fun bt ~first ~second -> stage_unlink bt ~first ~second ~n:g ~list_empty)
