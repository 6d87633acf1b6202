(* A sorted vector is either a raw mutable array (the build/write form,
   byte-compatible in layout and cost with the old Dynarray-backed
   implementation) or an immutable slice [off, off+slen) of a shared
   compressed stream.  Slices are views: they own no payload, so a
   flat compressed index can expose its hundred-thousand terminal
   lists as 4-word headers over four big streams.  Mutating a slice
   raises — the store swaps whole representations instead (see
   [Hexastore.compress]/[inflate]). *)

type kind = Raw | Packed

let kind_name = function Raw -> "raw" | Packed -> "packed"

let kind_of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "raw" -> Some Raw
  | "packed" -> Some Packed
  | _ -> None

type stream = Packed_ivec.t

type t =
  | R of { mutable data : int array; mutable len : int }
  | S of { base : stream; off : int; slen : int }

(* Telemetry: one counter per binary-search call, one per comparison
   step.  Both are single-flag-read no-ops while telemetry is off.
   [m_gallop_skip] records, per galloping seek, how many elements the
   seek jumped over — large values mean the gallop is earning its keep.
   [m_bytes_saved] totals bytes recovered by store compression. *)
let m_bsearch = Telemetry.Metrics.counter "vectors.bsearch.probes"
let m_bsearch_steps = Telemetry.Metrics.counter "vectors.bsearch.steps"
let m_gallop_skip = Telemetry.Metrics.histogram "vectors.gallop.skip"
let m_bytes_saved = Telemetry.Metrics.counter "vectors.repr.bytes_saved"

let note_bytes_saved n = Telemetry.Metrics.add m_bytes_saved n

let create ?(capacity = 8) () = R { data = Array.make (max capacity 1) 0; len = 0 }

let singleton x = R { data = [| x |]; len = 1 }

let length = function R r -> r.len | S s -> s.slen

let is_empty v = length v = 0

let kind_of = function R _ -> Raw | S _ -> Packed

let is_compressed v = kind_of v <> Raw

let unsafe_get v i =
  match v with
  | R r -> Array.unsafe_get r.data i
  | S { base; off; _ } -> Packed_ivec.get base (off + i)

let get v i =
  if i < 0 || i >= length v then
    invalid_arg (Printf.sprintf "Sorted_ivec.get: index %d out of bounds [0,%d)" i (length v));
  unsafe_get v i

let min_elt v = if is_empty v then raise Not_found else unsafe_get v 0

let max_elt v = if is_empty v then raise Not_found else unsafe_get v (length v - 1)

(* Index of the first element >= x, i.e. the classic lower bound.  Raw
   and bit-packed vectors alike binary-search with O(1) cell reads. *)
let index_geq v x =
  Telemetry.Metrics.incr m_bsearch;
  let lo = ref 0 and hi = ref (length v) in
  while !lo < !hi do
    Telemetry.Metrics.incr m_bsearch_steps;
    let mid = (!lo + !hi) / 2 in
    if unsafe_get v mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

let rank = index_geq

(* Exponential (galloping) search for the first element >= x, starting
   at index [from].  The doubling phase brackets the answer in
   O(log(skip)) steps, then a binary search pins it down inside the
   bracket, so resuming from the previous hit makes a whole ascending
   probe sequence cost O(n_probes · log(gap)) instead of
   O(n_probes · log n). *)
let search_from v ~from x =
  let n = length v in
  let from = if from < 0 then 0 else from in
  if from >= n then n
  else
    let step = ref 1 in
    let lo = ref from in
    if unsafe_get v !lo >= x then !lo
    else begin
      while !lo + !step < n && unsafe_get v (!lo + !step) < x do
        lo := !lo + !step;
        step := !step * 2
      done;
      let hi = ref (min n (!lo + !step + 1)) in
      (* lo points at an element < x, so the answer is in (lo, hi]. *)
      incr lo;
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if unsafe_get v mid < x then lo := mid + 1 else hi := mid
      done;
      if !Telemetry.Config.enabled then
        Telemetry.Metrics.observe m_gallop_skip (!lo - from);
      !lo
    end

let mem v x =
  let i = index_geq v x in
  i < length v && unsafe_get v i = x

let find_geq v x =
  let i = index_geq v x in
  if i < length v then Some (unsafe_get v i) else None

let frozen op = invalid_arg ("Sorted_ivec." ^ op ^ ": compressed vector is immutable")

let add v x =
  match v with
  | S _ -> frozen "add"
  | R r ->
      let n = r.len in
      let grow () =
        if n = Array.length r.data then begin
          let data = Array.make (max 8 (2 * n)) 0 in
          Array.blit r.data 0 data 0 n;
          r.data <- data
        end
      in
      if n = 0 || x > Array.unsafe_get r.data (n - 1) then begin
        grow ();
        Array.unsafe_set r.data n x;
        r.len <- n + 1;
        true
      end
      else begin
        let i = index_geq v x in
        if i < n && Array.unsafe_get r.data i = x then false
        else begin
          grow ();
          Array.blit r.data i r.data (i + 1) (n - i);
          Array.unsafe_set r.data i x;
          r.len <- n + 1;
          true
        end
      end

let remove v x =
  match v with
  | S _ -> frozen "remove"
  | R r ->
      let i = index_geq v x in
      if i < r.len && Array.unsafe_get r.data i = x then begin
        Array.blit r.data (i + 1) r.data i (r.len - i - 1);
        r.len <- r.len - 1;
        true
      end
      else false

(* Batch forms of [add]/[remove]: one linear pass over the vector for a
   whole sorted run instead of one shift per element.  The insert merges
   backwards in place after growing the array once (to the larger of the
   exact need and double the old capacity, so repeated batches stay
   amortised without over-allocating a one-off merge); the removal
   compacts forwards.  Both check their precondition as they go. *)
let insert_sorted v a ~pos ~len =
  match v with
  | S _ -> frozen "insert_sorted"
  | R r ->
      let n = r.len in
      let m = n + len in
      if m > Array.length r.data then begin
        let data = Array.make (max m (2 * Array.length r.data)) 0 in
        Array.blit r.data 0 data 0 n;
        r.data <- data
      end;
      let d = r.data in
      (* i: next vector element (from the top), j: next run element,
         w: next slot to fill. *)
      let i = ref (n - 1) and j = ref (pos + len - 1) and w = ref (m - 1) in
      while !j >= pos do
        let x = Array.unsafe_get a !j in
        if !j > pos && Array.unsafe_get a (!j - 1) >= x then
          invalid_arg "Sorted_ivec.insert_sorted: run not strictly increasing";
        if !i >= 0 && Array.unsafe_get d !i >= x then begin
          if Array.unsafe_get d !i = x then
            invalid_arg "Sorted_ivec.insert_sorted: element already present";
          Array.unsafe_set d !w (Array.unsafe_get d !i);
          decr i
        end
        else begin
          Array.unsafe_set d !w x;
          decr j
        end;
        decr w
      done;
      r.len <- m

let remove_sorted v a ~pos ~len =
  match v with
  | S _ -> frozen "remove_sorted"
  | R r ->
      let n = r.len and d = r.data in
      let stop = pos + len in
      let w = ref 0 and j = ref pos in
      for i = 0 to n - 1 do
        let x = Array.unsafe_get d i in
        if !j < stop && Array.unsafe_get a !j = x then incr j
        else begin
          if !j < stop && Array.unsafe_get a !j < x then
            invalid_arg "Sorted_ivec.remove_sorted: element absent";
          Array.unsafe_set d !w x;
          incr w
        end
      done;
      if !j < stop then invalid_arg "Sorted_ivec.remove_sorted: element absent";
      r.len <- !w

let of_sorted_array a =
  let n = Array.length a in
  for i = 1 to n - 1 do
    if a.(i - 1) >= a.(i) then invalid_arg "Sorted_ivec.of_sorted_array: not strictly increasing"
  done;
  R { data = (if n = 0 then Array.make 1 0 else Array.copy a); len = n }

let of_list l =
  let a = Array.of_list (List.sort_uniq compare l) in
  R { data = (if Array.length a = 0 then Array.make 1 0 else a); len = Array.length a }

let iter f = function
  | R r ->
      for i = 0 to r.len - 1 do
        f (Array.unsafe_get r.data i)
      done
  | S { base; off; slen } -> Packed_ivec.iter_range f base ~lo:off ~hi:(off + slen)

let iter_from f v x =
  for i = index_geq v x to length v - 1 do
    f (unsafe_get v i)
  done

let fold f acc v =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) v;
  !acc

let to_array v =
  match v with
  | R r -> Array.sub r.data 0 r.len
  | S _ ->
      let a = Array.make (length v) 0 in
      let i = ref 0 in
      iter
        (fun x ->
          Array.unsafe_set a !i x;
          incr i)
        v;
      a

let to_list v = Array.to_list (to_array v)

let seq_from v i =
  let n = length v in
  let rec aux i () = if i >= n then Seq.Nil else Seq.Cons (unsafe_get v i, aux (i + 1)) in
  aux i

let to_seq v = seq_from v 0

let to_seq_from v x = seq_from v (index_geq v x)

let choose_arbitrary v = if is_empty v then None else Some (unsafe_get v 0)

let subset a b =
  (* Two-pointer scan: both vectors are sorted, so a single pass decides. *)
  let na = length a and nb = length b in
  let rec loop i j =
    if i >= na then true
    else if j >= nb then false
    else
      let x = unsafe_get a i and y = unsafe_get b j in
      if x = y then loop (i + 1) (j + 1) else if x > y then loop i (j + 1) else false
  in
  na <= nb && loop 0 0

let equal a b =
  match (a, b) with
  | R ra, R rb ->
      ra.len = rb.len
      &&
      let rec loop i =
        i >= ra.len
        || (Array.unsafe_get ra.data i = Array.unsafe_get rb.data i && loop (i + 1))
      in
      loop 0
  | _ ->
      length a = length b
      &&
      let n = length a in
      let rec loop i = i >= n || (unsafe_get a i = unsafe_get b i && loop (i + 1)) in
      loop 0

let copy v =
  match v with
  | R r -> R { data = Array.copy r.data; len = r.len }
  | S _ ->
      let a = to_array v in
      R { data = (if Array.length a = 0 then Array.make 1 0 else a); len = length v }

let clear = function R r -> r.len <- 0 | S _ -> frozen "clear"

let memory_words = function
  | R r -> Array.length r.data + 1 + 3
  | S _ -> 4 (* header + base pointer + off + slen; the stream is owned elsewhere *)

let pp ppf v =
  Format.fprintf ppf "[|%a|]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Format.pp_print_int)
    (to_list v)

let check_invariant v =
  for i = 1 to length v - 1 do
    assert (unsafe_get v (i - 1) < unsafe_get v i)
  done

(* ------------------------------------------------------------------- *)
(* Streams and slices                                                  *)
(* ------------------------------------------------------------------- *)

let stream_of_array = Packed_ivec.of_array

let stream_length = Packed_ivec.length

let stream_get = Packed_ivec.get

let slice base ~off ~len =
  let n = stream_length base in
  if off < 0 || len < 0 || off + len > n then
    invalid_arg (Printf.sprintf "Sorted_ivec.slice: [%d,%d) outside [0,%d)" off (off + len) n);
  S { base; off; slen = len }

let stream_memory_words = Packed_ivec.memory_words

let stream_validate = Packed_ivec.validate

let compress kind v =
  match kind with
  | Raw -> (
      match v with
      | R _ -> v
      | S _ ->
          let a = to_array v in
          R { data = (if Array.length a = 0 then Array.make 1 0 else a); len = length v })
  | Packed ->
      let a = to_array v in
      slice (stream_of_array a) ~off:0 ~len:(Array.length a)

let block_violations = function
  | R _ -> []
  | S { base; _ } -> stream_validate base
