open Vectors
module V = Violation

(* Validators accumulate into a reverse-ordered list ref; [finish] restores
   discovery order. *)
let add acc v = acc := v :: !acc
let finish acc = List.rev !acc

(* --- vectors ---------------------------------------------------------- *)

let sorted_ivec_acc acc ~path v =
  let n = Sorted_ivec.length v in
  for i = 1 to n - 1 do
    let a = Sorted_ivec.get v (i - 1) and b = Sorted_ivec.get v i in
    if a >= b then
      add acc (V.v V.Vector ~path "elements out of order at %d: %d >= %d" i a b)
  done;
  (* Compressed slices additionally carry per-block headers (mins, widths,
     offsets, first-values); [block_violations] is [] on raw vectors. *)
  List.iter
    (fun msg -> add acc (V.v V.Vector ~path "block header: %s" msg))
    (Sorted_ivec.block_violations v)

let sorted_ivec ?(path = "sorted_ivec") v =
  let acc = ref [] in
  sorted_ivec_acc acc ~path v;
  finish acc

let pair_vector_acc acc ~path v =
  let open Hexa in
  let n = Pair_vector.length v in
  for i = 1 to n - 1 do
    let a = Pair_vector.key_at v (i - 1) and b = Pair_vector.key_at v i in
    if a >= b then
      add acc (V.v V.Pair_vector ~path "keys out of order at %d: %d >= %d" i a b)
  done;
  let sum = ref 0 in
  for i = 0 to n - 1 do
    let key = Pair_vector.key_at v i in
    let l = Pair_vector.payload_at v i in
    sum := !sum + Sorted_ivec.length l;
    if Sorted_ivec.is_empty l then
      add acc (V.v V.Pair_vector ~path "empty terminal list under key %d (should be pruned)" key);
    sorted_ivec_acc acc ~path:(Printf.sprintf "%s[%d].list" path key) l
  done;
  if !sum <> Pair_vector.total v then
    add acc
      (V.v V.Pair_vector ~path "total %d disagrees with sum of list lengths %d"
         (Pair_vector.total v) !sum)

let pair_vector ?(path = "pair_vector") v =
  let acc = ref [] in
  pair_vector_acc acc ~path v;
  finish acc

(* --- one ordering ------------------------------------------------------ *)

let index_acc acc ~path idx =
  let open Hexa in
  Index.iter
    (fun h v ->
      let vpath = Printf.sprintf "%s[%d]" path h in
      if Pair_vector.length v = 0 then
        add acc (V.v V.Index ~path:vpath "empty vector under header (should be pruned)");
      pair_vector_acc acc ~path:vpath v)
    idx;
  (* The sorted header vector merge scans seek into must list exactly
     the headers present — the batch paths merge it separately. *)
  let hs = Index.headers_view idx in
  sorted_ivec_acc acc ~path:(path ^ ".headers") hs;
  if Sorted_ivec.length hs <> Index.header_count idx then
    add acc
      (V.v V.Index ~path "sorted header vector holds %d headers, index has %d"
         (Sorted_ivec.length hs) (Index.header_count idx));
  Sorted_ivec.iter
    (fun h ->
      if Index.find_vector idx h = None then
        add acc (V.v V.Index ~path "sorted header vector lists absent header %d" h))
    hs

let index ?(path = "index") idx =
  let acc = ref [] in
  index_acc acc ~path idx;
  finish acc

(* --- the Hexastore ----------------------------------------------------- *)

(* [expect_shared acc ~same canonical found] checks that a terminal list
   reached through another ordering (or accessor table) matches the
   canonical one — the §4.1 sharing invariant behind the 5x space bound.
   On raw stores [same] is physical equality ([==]); on flat compressed
   stores twin slices are distinct 4-word views over the same underlying
   stream, so the check degrades to logical equality. *)
let expect_shared acc ~path ~twin ~same canonical = function
  | None -> add acc (V.v V.Store ~path "terminal list missing from %s" twin)
  | Some l ->
      if not (same l canonical) then
        add acc (V.v V.Store ~path "terminal list in %s is a distinct copy, not shared" twin)

let expect_member acc ~path ~twin elt = function
  | None -> add acc (V.v V.Store ~path "terminal list missing from %s" twin)
  | Some l ->
      if not (Sorted_ivec.mem l elt) then
        add acc (V.v V.Store ~path "%s list lacks element %d" twin elt)

let store_acc acc h =
  let open Hexa in
  let size = Hexastore.size h in
  let same = if Hexastore.is_flat h then Sorted_ivec.equal else ( == ) in
  let orderings =
    [
      ("spo", Hexastore.spo h);
      ("sop", Hexastore.sop h);
      ("pso", Hexastore.pso h);
      ("pos", Hexastore.pos h);
      ("osp", Hexastore.osp h);
      ("ops", Hexastore.ops h);
    ]
  in
  List.iter
    (fun (name, idx) ->
      index_acc acc ~path:name idx;
      let total = Index.total idx in
      if total <> size then
        add acc (V.v V.Store ~path:name "index total %d disagrees with store size %d" total size))
    orderings;
  (* Walk spo once; every triple must be reachable through the five other
     orderings, and the three terminal lists must be physically shared
     with their twins and with the direct accessor tables. *)
  let seen = ref 0 in
  Index.iter
    (fun s v ->
      Pair_vector.iter
        (fun p o_list ->
          let path = Printf.sprintf "spo[%d][%d]" s p in
          expect_shared acc ~path ~same ~twin:"pso" o_list (Index.find_list (Hexastore.pso h) p s);
          expect_shared acc ~path ~same ~twin:"objects_of_sp" o_list (Hexastore.objects_of_sp h ~s ~p);
          Sorted_ivec.iter
            (fun o ->
              incr seen;
              let path = Printf.sprintf "spo triple (%d,%d,%d)" s p o in
              let p_list = Index.find_list (Hexastore.sop h) s o in
              expect_member acc ~path ~twin:"sop" p p_list;
              (match p_list with
              | Some pl ->
                  expect_shared acc ~path ~same ~twin:"osp" pl (Index.find_list (Hexastore.osp h) o s);
                  expect_shared acc ~path ~same ~twin:"properties_of_so" pl
                    (Hexastore.properties_of_so h ~s ~o)
              | None -> ());
              let s_list = Index.find_list (Hexastore.pos h) p o in
              expect_member acc ~path ~twin:"pos" s s_list;
              match s_list with
              | Some sl ->
                  expect_shared acc ~path ~same ~twin:"ops" sl (Index.find_list (Hexastore.ops h) o p);
                  expect_shared acc ~path ~same ~twin:"subjects_of_po" sl
                    (Hexastore.subjects_of_po h ~p ~o)
              | None -> ())
            o_list)
        v)
    (Hexastore.spo h);
  if !seen <> size then
    add acc (V.v V.Store ~path:"spo" "spo reaches %d triples but store size is %d" !seen size)

(* --- dictionaries ------------------------------------------------------ *)

let dictionary_acc acc d =
  let open Dict in
  for id = 0 to Dictionary.size d - 1 do
    let s = Dictionary.decode d id in
    match Dictionary.find d s with
    | Some id' when id' = id -> ()
    | Some id' ->
        add acc
          (V.v V.Dictionary ~path:(Printf.sprintf "id %d" id)
             "decode/find round-trip maps %S to id %d" s id')
    | None ->
        add acc
          (V.v V.Dictionary ~path:(Printf.sprintf "id %d" id) "decoded string %S is unknown" s)
  done

let dictionary d =
  let acc = ref [] in
  dictionary_acc acc d;
  finish acc

let term_dict_acc acc d =
  let open Dict in
  for id = 0 to Term_dict.size d - 1 do
    let term = Term_dict.decode_term d id in
    match Term_dict.find_term d term with
    | Some id' when id' = id -> ()
    | Some id' ->
        add acc
          (V.v V.Dictionary ~path:(Printf.sprintf "id %d" id)
             "decode/find round-trip maps %a to id %d" Rdf.Term.pp term id')
    | None ->
        add acc
          (V.v V.Dictionary ~path:(Printf.sprintf "id %d" id) "decoded term %a is unknown"
             Rdf.Term.pp term)
  done

let term_dict d =
  let acc = ref [] in
  term_dict_acc acc d;
  finish acc

let store h =
  let acc = ref [] in
  store_acc acc h;
  term_dict_acc acc (Hexa.Hexastore.dict h);
  finish acc

(* --- delta layer -------------------------------------------------------- *)

(* How many merged triples get the full 8-shape pattern cross-check
   against the flushed clone.  Capped so [delta] stays usable inside the
   differential checker's per-op validation loop. *)
let delta_sample_cap = 16

let delta d =
  let open Hexa in
  let acc = ref [] in
  let base = Delta.base d in
  store_acc acc base;
  term_dict_acc acc (Hexastore.dict base);
  let tr_path { Dict.Term_dict.s; p; o } = Printf.sprintf "(%d,%d,%d)" s p o in
  (* Buffer coherence: inserts ∉ base, deletes ⊆ base, buffers disjoint. *)
  let deletes = Hashtbl.create 16 in
  Delta.iter_pending_deletes
    (fun tr ->
      Hashtbl.replace deletes tr ();
      if not (Hexastore.mem_ids base tr) then
        add acc (V.v V.Delta ~path:(tr_path tr) "tombstone for a triple the base does not hold"))
    d;
  Delta.iter_pending_inserts
    (fun tr ->
      if Hexastore.mem_ids base tr then
        add acc (V.v V.Delta ~path:(tr_path tr) "buffered insert already present in base");
      if Hashtbl.mem deletes tr then
        add acc (V.v V.Delta ~path:(tr_path tr) "triple buffered as both insert and delete"))
    d;
  (* Merged-view fidelity: the delta must be observationally equal — same
     triples, same per-shape order, same counts — to a clone that has the
     delta already applied the slow way. *)
  let clone = Hexastore.create ~dict:(Hexastore.dict base) () in
  let base_triples = List.rev (Hexastore.fold (fun tr l -> tr :: l) base []) in
  ignore (Hexastore.add_bulk_ids clone (Array.of_list base_triples));
  Delta.iter_pending_deletes (fun tr -> ignore (Hexastore.remove_ids clone tr)) d;
  Delta.iter_pending_inserts (fun tr -> ignore (Hexastore.add_ids clone tr)) d;
  if Delta.size d <> Hexastore.size clone then
    add acc
      (V.v V.Delta ~path:"size" "merged size %d disagrees with flushed clone %d" (Delta.size d)
         (Hexastore.size clone));
  let check_pattern pat =
    let path = Format.asprintf "pattern %a" Pattern.pp pat in
    let merged = List.of_seq (Delta.lookup d pat) in
    let flushed = List.of_seq (Hexastore.lookup clone pat) in
    if merged <> flushed then
      add acc
        (V.v V.Delta ~path "merged view disagrees with flushed clone (%d vs %d triples, or order)"
           (List.length merged) (List.length flushed));
    if Delta.count d pat <> Hexastore.count clone pat then
      add acc
        (V.v V.Delta ~path "merged count %d disagrees with flushed clone %d" (Delta.count d pat)
           (Hexastore.count clone pat))
  in
  check_pattern Pattern.wildcard;
  let sample = List.rev (Hexastore.fold (fun tr l -> tr :: l) clone []) in
  let n = List.length sample in
  let stride = max 1 (n / delta_sample_cap) in
  List.iteri
    (fun i ({ Dict.Term_dict.s; p; o } as tr) ->
      if i mod stride = 0 then begin
        List.iter check_pattern
          [
            Pattern.of_triple tr;
            Pattern.make ~s ~p ();
            Pattern.make ~s ~o ();
            Pattern.make ~p ~o ();
            Pattern.make ~s ();
            Pattern.make ~p ();
            Pattern.make ~o ();
          ]
      end)
    sample;
  finish acc

(* --- dataset ----------------------------------------------------------- *)

let dataset d =
  let open Hexa in
  let acc = ref [] in
  let dict = Dataset.dict d in
  let graphs =
    (None, Dataset.default_graph d)
    :: List.filter_map
         (fun name -> Option.map (fun g -> (Some name, g)) (Dataset.graph d name))
         (Dataset.graph_names d)
  in
  let total = ref 0 in
  List.iter
    (fun (name, g) ->
      let path =
        match name with
        | None -> "default graph"
        | Some t -> Format.asprintf "graph %a" Rdf.Term.pp t
      in
      total := !total + Hexastore.size g;
      if not (Hexastore.dict g == dict) then
        add acc (V.v V.Dataset ~path "graph does not share the dataset dictionary");
      List.iter (fun v -> add acc { v with Violation.path = path ^ "." ^ v.Violation.path })
        (store g))
    graphs;
  if !total <> Dataset.size d then
    add acc
      (V.v V.Dataset ~path:"size" "dataset size %d disagrees with sum over graphs %d"
         (Dataset.size d) !total);
  finish acc

(* --- snapshot round-trip ----------------------------------------------- *)

let snapshot_roundtrip h =
  let open Hexa in
  let acc = ref [] in
  (* Precondition: a snapshot's ids are positional in the dictionary, so
     every id the store uses must actually be allocated there.  Saying so
     beats the opaque corruption error a round-trip would report. *)
  let dict_size = Dict.Term_dict.size (Hexastore.dict h) in
  let bad_ids = ref 0 in
  Hexastore.fold
    (fun { s; p; o } () ->
      if s >= dict_size || p >= dict_size || o >= dict_size then incr bad_ids)
    h ();
  if !bad_ids > 0 then
    [
      V.v V.Snapshot ~path:"store"
        "%d triple(s) use ids outside the dictionary (size %d); only dictionary-encoded stores \
         are snapshotable"
        !bad_ids dict_size;
    ]
  else begin
  let file = Filename.temp_file "hexcheck" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      match
        Snapshot.save h file;
        Snapshot.load file
      with
      | exception Snapshot.Corrupt msg ->
          add acc (V.v V.Snapshot ~path:file "round-trip reported corruption: %s" msg)
      | h' ->
          if Hexastore.size h' <> Hexastore.size h then
            add acc
              (V.v V.Snapshot ~path:file "size changed across round-trip: %d -> %d"
                 (Hexastore.size h) (Hexastore.size h'));
          let triples_of st = List.rev (Hexastore.fold (fun tr l -> tr :: l) st []) in
          if triples_of h' <> triples_of h then
            add acc (V.v V.Snapshot ~path:file "triple set changed across round-trip");
          let d = Hexastore.dict h and d' = Hexastore.dict h' in
          if Dict.Term_dict.size d' <> Dict.Term_dict.size d then
            add acc
              (V.v V.Snapshot ~path:file "dictionary size changed across round-trip: %d -> %d"
                 (Dict.Term_dict.size d) (Dict.Term_dict.size d'))
          else
            for id = 0 to Dict.Term_dict.size d - 1 do
              let a = Dict.Term_dict.decode_term d id
              and b = Dict.Term_dict.decode_term d' id in
              if Rdf.Term.compare a b <> 0 then
                add acc
                  (V.v V.Snapshot ~path:file "dictionary id %d decodes differently: %a vs %a" id
                     Rdf.Term.pp a Rdf.Term.pp b)
            done;
          List.iter (fun v -> add acc { v with Violation.path = "reloaded." ^ v.Violation.path })
            (store h'));
  finish acc
  end
