(** A partial Hexastore: only a chosen subset of the six orderings.

    §6 observes that "some indices may not contribute to query efficiency
    based on a given workload.  For example, the ops index has been seldom
    used in our experiments.  A subject for future research concerns the
    selection of the most suitable indices for a given RDF data set based
    on the query workload at hand."  This module is that store: it
    materialises any non-empty subset of {spo, sop, pso, pos, osp, ops}
    (terminal lists still shared within a twin pair when both are kept)
    and answers {e every} pattern shape regardless — natively when the
    shape's ordering is present, otherwise through the cheapest present
    ordering (filtered traversal, falling back to a full scan only when
    no bound position leads a materialised ordering).

    {!Advisor} picks the subset from a workload. *)

type t

val create : ?dict:Dict.Term_dict.t -> orderings:Ordering.t list -> unit -> t
(** @raise Invalid_argument when [orderings] is empty. *)

val orderings : t -> Ordering.Set.t

val dict : t -> Dict.Term_dict.t

val size : t -> int

val add_ids : t -> Dict.Term_dict.id_triple -> bool

val remove_ids : t -> Dict.Term_dict.id_triple -> bool
(** Delete; [false] if absent.  Emptied keys and headers are pruned. *)

val add_bulk_ids : t -> Dict.Term_dict.id_triple array -> int

val remove_bulk_ids : t -> Dict.Term_dict.id_triple array -> int
(** The linear batch delete (see {!Hexastore.remove_bulk_ids}); returns
    the number of triples removed. *)

val mem_ids : t -> Dict.Term_dict.id_triple -> bool
(** O(log) through any present terminal-list family. *)

val lookup : t -> Pattern.t -> Dict.Term_dict.id_triple Seq.t
(** Always correct; cost depends on whether the shape's ordering (or a
    useful substitute) is materialised. *)

val count : t -> Pattern.t -> int

val is_native : t -> Pattern.shape -> bool
(** Whether the shape is served by its preferred ordering. *)

val memory_words : t -> int

val check_invariant : t -> unit
(** Present orderings are mutually consistent and sorted. *)
