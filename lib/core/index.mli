(** One of the six Hexastore orderings.

    An index maps a header resource (the first element of the ordering) to
    a {!Pair_vector.t} of second elements whose payloads are the shared
    terminal lists of third elements.  The module is ordering-agnostic:
    [Hexastore] instantiates six of these and decides which roles the
    three levels play. *)

type t

val create : ?initial_headers:int -> unit -> t
(** A fresh mutable (hashed) index. *)

val compress : t -> t
(** Rebuild as a flat compressed index: headers, second-level keys and
    terminal ids become three shared bit-packed streams addressed by two
    bit-packed row-pointer streams, and every lookup answers with
    zero-copy slices/views.  Flat indices are immutable — the mutating
    operations below raise [Invalid_argument]; the store swaps whole
    representations instead ([Hexastore.compress]/[inflate]). *)

val is_flat : t -> bool

val block_violations : t -> string list
(** Codec-level audits of every backing stream (empty on hashed
    indices or when sound). *)

val header_count : t -> int

val find_vector : t -> int -> Pair_vector.t option
(** Pair vector under a header. *)

val get_or_create_vector : t -> int -> Pair_vector.t

val find_list : t -> int -> int -> Vectors.Sorted_ivec.t option
(** [find_list idx first second] is the terminal list under
    (first, second), if both levels exist. *)

val remove_header : t -> int -> bool

(** {1 Shared terminal lists}

    Every store keeps its terminal lists in tables keyed by the packed
    pair ({!Vectors.Pair_key}) of an ordering's first two elements, and
    links each list into that ordering's index and, when materialised,
    its twin's (§4.1's sharing). *)

val get_or_create_list : (int, Vectors.Sorted_ivec.t) Hashtbl.t -> int -> Vectors.Sorted_ivec.t
(** The list under a packed key, created empty when absent. *)

val link : t -> first:int -> second:int -> Vectors.Sorted_ivec.t -> unit
(** Point write: register list [l] under (first, second) — creating the
    header and the key as needed — and count one more triple under the
    header. *)

val unlink : t -> first:int -> second:int -> list_empty:bool -> unit
(** Point delete: count one triple less under [first]; when the shared
    list has emptied, drop the key, and the header once its vector is
    empty.  @raise Invalid_argument on an unknown header. *)

(** {1 Bulk maintenance}

    The batch forms cost O(H + V + k log k) per index for a batch of k
    triples — one sort, then one linear merge per header vector, pair
    vector and terminal list touched — instead of k shifting inserts.
    New headers and keys that sort after everything present are
    appended on the spot; lower ones are staged and merged once when
    the pass ends.  With {!Debug.enabled}, every touched list and index
    is re-validated. *)

val sort_run :
  Ordering.t ->
  keep:(Dict.Term_dict.id_triple -> bool) ->
  Dict.Term_dict.id_triple array ->
  Dict.Term_dict.id_triple array
(** A fresh copy of the batch sorted in the ordering's order, with
    duplicates and the triples failing [keep] dropped. *)

val add_run :
  Ordering.t ->
  (int, Vectors.Sorted_ivec.t) Hashtbl.t ->
  (Ordering.t * t) list ->
  Dict.Term_dict.id_triple array ->
  unit
(** [add_run ord lists targets run] inserts [run] — distinct triples,
    none already stored — into one list family: [lists] keyed by the
    (first, second) elements of [ord] holding its third, linked into
    each target index, whose ordering must be [ord] or its twin.
    Sorts [run] in place into [ord] order first (a no-op pass when
    already sorted).  Totals are bumped; the store's size is the
    caller's. *)

val remove_run :
  Ordering.t ->
  (int, Vectors.Sorted_ivec.t) Hashtbl.t ->
  (Ordering.t * t) list ->
  Dict.Term_dict.id_triple array ->
  unit
(** The delete counterpart of {!add_run}: every triple of [run] must be
    stored.  Emptied lists leave [lists]; keys, vectors and headers
    left empty are pruned.
    @raise Not_found or Invalid_argument when a triple is absent. *)

val iter : (int -> Pair_vector.t -> unit) -> t -> unit
(** Over headers in unspecified order (hash order). *)

val iter_sorted : (int -> Pair_vector.t -> unit) -> t -> unit
(** Over headers in ascending id order (streams the maintained sorted
    header vector; O(h)). *)

val headers : t -> Vectors.Sorted_ivec.t
(** Fresh sorted vector of header ids (a copy; safe to mutate). *)

val headers_view : t -> Vectors.Sorted_ivec.t
(** The index's own maintained sorted header vector — zero-copy, shared:
    callers must not mutate it.  Merge-scans seek into this directly. *)

val total : t -> int
(** Number of triples reachable through this index (sum of vector
    totals); equals the store size when the index is consistent. *)

val memory_words : t -> int
(** Headers and vectors only — terminal list contents are accounted once
    by the store. *)

val check_invariant : t -> unit
