open Vectors

(* The mutable build form [Pv] is the historical keys-plus-payload-array
   layout.  [View] is the flat compressed index's window onto its key
   stream: a zero-copy sorted key slice, the precomputed triple total,
   and a function materialising the j-th terminal-list slice on demand.
   Views are transient (constructed per lookup, never stored), so they
   carry no mutation support. *)
type t =
  | Pv of {
      keys : Dynarray_int.t;
      mutable payloads : Sorted_ivec.t array; (* parallel to keys; slack beyond length *)
      mutable total_count : int;
    }
  | View of {
      vkeys : Sorted_ivec.t;
      vtotal : int;
      vpay : int -> Sorted_ivec.t;
    }

let dummy = Sorted_ivec.create ~capacity:1 ()

let create ?(capacity = 4) () =
  Pv
    {
      keys = Dynarray_int.create ~capacity ();
      payloads = Array.make (max capacity 1) dummy;
      total_count = 0;
    }

let view ~keys ~total ~payload = View { vkeys = keys; vtotal = total; vpay = payload }

let frozen op = invalid_arg ("Pair_vector." ^ op ^ ": compressed view is immutable")

let length = function Pv v -> Dynarray_int.length v.keys | View v -> Sorted_ivec.length v.vkeys

let total = function Pv v -> v.total_count | View v -> v.vtotal

let bump_total v d =
  match v with Pv v -> v.total_count <- v.total_count + d | View _ -> frozen "bump_total"

let unsafe_key v i =
  match v with
  | Pv v -> Dynarray_int.unsafe_get v.keys i
  | View v -> Sorted_ivec.get v.vkeys i

let index_geq v x =
  match v with
  | View w -> Sorted_ivec.index_geq w.vkeys x
  | Pv _ ->
      let lo = ref 0 and hi = ref (length v) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if unsafe_key v mid < x then lo := mid + 1 else hi := mid
      done;
      !lo

let payload v i = match v with Pv v -> v.payloads.(i) | View v -> v.vpay i

let find v key =
  let i = index_geq v key in
  if i < length v && unsafe_key v i = key then Some (payload v i) else None

(* Galloping lower bound over the keys, resuming at [from] — the same
   exponential bracket-then-bisect as {!Vectors.Sorted_ivec.search_from},
   so a merge-scan's repeated seeks pay for distance covered, not log n
   each. *)
let search_from v ~from x =
  match v with
  | View w -> Sorted_ivec.search_from w.vkeys ~from x
  | Pv _ ->
      let n = length v in
      let from = if from < 0 then 0 else from in
      if from >= n then n
      else if unsafe_key v from >= x then from
      else begin
        let step = ref 1 in
        let lo = ref from in
        while !lo + !step < n && unsafe_key v (!lo + !step) < x do
          lo := !lo + !step;
          step := !step * 2
        done;
        let hi = ref (min n (!lo + !step + 1)) in
        incr lo;
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if unsafe_key v mid < x then lo := mid + 1 else hi := mid
        done;
        !lo
      end

let get_or_insert v key mk =
  match v with
  | View _ -> frozen "get_or_insert"
  | Pv r ->
      let n = Dynarray_int.length r.keys in
      let ensure m =
        if m > Array.length r.payloads then begin
          let bigger = Array.make (max m (2 * Array.length r.payloads)) dummy in
          Array.blit r.payloads 0 bigger 0 (Array.length r.payloads);
          r.payloads <- bigger
        end
      in
      if n = 0 || key > Dynarray_int.last r.keys then begin
        (* Fast path: ascending arrival, plain append. *)
        let payload = mk () in
        Dynarray_int.push r.keys key;
        ensure (n + 1);
        r.payloads.(n) <- payload;
        payload
      end
      else
        let i = index_geq v key in
        if i < n && Dynarray_int.unsafe_get r.keys i = key then r.payloads.(i)
        else begin
          let payload = mk () in
          Dynarray_int.insert r.keys i key;
          ensure (n + 1);
          Array.blit r.payloads i r.payloads (i + 1) (n - i);
          r.payloads.(i) <- payload;
          payload
        end

let remove v key =
  match v with
  | View _ -> frozen "remove"
  | Pv r ->
      let i = index_geq v key in
      if i < Dynarray_int.length r.keys && Dynarray_int.unsafe_get r.keys i = key then begin
        let n = Dynarray_int.length r.keys in
        Dynarray_int.remove r.keys i;
        Array.blit r.payloads (i + 1) r.payloads i (n - i - 1);
        r.payloads.(n - 1) <- dummy;
        true
      end
      else false

(* Batch forms of [get_or_insert]/[remove] (the store's bulk paths):
   one backward in-place merge, or one forward compaction, per vector
   per batch instead of a key shift and a payload blit through the
   write barrier per element. *)
let insert_sorted v keys payloads ~pos ~len =
  match v with
  | View _ -> frozen "insert_sorted"
  | Pv r ->
      let n = Dynarray_int.length r.keys in
      let m = n + len in
      for _ = 1 to len do
        Dynarray_int.push r.keys 0
      done;
      if m > Array.length r.payloads then begin
        let bigger = Array.make (max m (2 * Array.length r.payloads)) dummy in
        Array.blit r.payloads 0 bigger 0 n;
        r.payloads <- bigger
      end;
      let i = ref (n - 1) and j = ref (pos + len - 1) and w = ref (m - 1) in
      while !j >= pos do
        let k = keys.(!j) in
        if !j > pos && keys.(!j - 1) >= k then
          invalid_arg "Pair_vector.insert_sorted: keys not strictly increasing";
        let ki = if !i >= 0 then Dynarray_int.unsafe_get r.keys !i else min_int in
        if ki = k then invalid_arg "Pair_vector.insert_sorted: key already present";
        if ki > k then begin
          Dynarray_int.set r.keys !w ki;
          r.payloads.(!w) <- r.payloads.(!i);
          decr i
        end
        else begin
          Dynarray_int.set r.keys !w k;
          r.payloads.(!w) <- payloads.(!j);
          decr j
        end;
        decr w
      done

let remove_sorted v keys ~pos ~len =
  match v with
  | View _ -> frozen "remove_sorted"
  | Pv r ->
      let n = Dynarray_int.length r.keys in
      let stop = pos + len in
      let w = ref 0 and j = ref pos in
      for i = 0 to n - 1 do
        let k = Dynarray_int.unsafe_get r.keys i in
        if !j < stop && keys.(!j) = k then incr j
        else begin
          if !j < stop && keys.(!j) < k then invalid_arg "Pair_vector.remove_sorted: key absent";
          if !w < i then begin
            Dynarray_int.set r.keys !w k;
            r.payloads.(!w) <- r.payloads.(i)
          end;
          incr w
        end
      done;
      if !j < stop then invalid_arg "Pair_vector.remove_sorted: key absent";
      Array.fill r.payloads !w (n - !w) dummy;
      Dynarray_int.truncate r.keys !w

let key_at v i =
  match v with Pv r -> Dynarray_int.get r.keys i | View w -> Sorted_ivec.get w.vkeys i

let payload_at v i =
  if i < 0 || i >= length v then invalid_arg "Pair_vector.payload_at";
  payload v i

let keys = function
  | Pv r -> Sorted_ivec.of_sorted_array (Dynarray_int.to_array r.keys)
  | View w -> Sorted_ivec.copy w.vkeys

let iter f v =
  for i = 0 to length v - 1 do
    f (unsafe_key v i) (payload v i)
  done

let to_seq v =
  let rec aux i () =
    if i >= length v then Seq.Nil else Seq.Cons ((unsafe_key v i, payload v i), aux (i + 1))
  in
  aux 0

let memory_words = function
  | Pv r -> Dynarray_int.memory_words r.keys + Array.length r.payloads + 3
  | View _ -> 8 (* transient: variant block + slice + closure; never aggregated *)

let check_invariant v =
  for i = 1 to length v - 1 do
    assert (unsafe_key v (i - 1) < unsafe_key v i)
  done;
  let sum = ref 0 in
  iter (fun _ l -> sum := !sum + Sorted_ivec.length l) v;
  assert (!sum = total v)
