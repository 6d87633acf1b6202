(* Clock and order statistics shared by the runner and its tests. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [q * n] samples at or below it. *)
let rank n q =
  if n <= 0 then invalid_arg "Measure.rank: no samples";
  (* The epsilon keeps q * n from rounding up past an exact product
     (0.07 *. 100. is 7.000000000000001 in binary). *)
  let r = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let percentile sorted q = sorted.(rank (Array.length sorted) q - 1)

(* Samples strictly beyond the nearest-rank [q]-percentile. *)
let beyond n q = n - rank n q

(* The highest percentile a sample supports has at least ten samples
   beyond it. *)
let supports n q = n > 0 && beyond n q >= 10

(* Rank n-10: the highest order statistic with ten samples beyond it. *)
let tail_n10 sorted =
  let n = Array.length sorted in
  if n < 11 then invalid_arg "Measure.tail_n10: fewer than 11 samples";
  sorted.(n - 11)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Growable int sample buffer (latencies in ns). *)
type samples = { mutable data : int array; mutable len : int }

let samples () = { data = Array.make 1024 0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let sorted_ms s =
  let a = Array.init s.len (fun i -> float_of_int s.data.(i) /. 1e6) in
  Array.sort Float.compare a;
  a

let sum s =
  let t = ref 0 in
  for i = 0 to s.len - 1 do
    t := !t + s.data.(i)
  done;
  !t

let pool ss =
  let out = samples () in
  List.iter (fun s -> for i = 0 to s.len - 1 do push out s.data.(i) done) ss;
  out
