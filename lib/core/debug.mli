(** Debug-only validation hooks.

    When {!enabled} is set, {!Hexastore.add_ids} and
    {!Hexastore.remove_ids} re-validate every vector and terminal list
    they touched (strict sortedness and pair-vector accounting) after the
    mutation, turning silent corruption into an immediate
    [Assert_failure] at the operation that caused it.  The batch paths
    ({!Hexastore.add_bulk_ids}/[remove_bulk_ids], and the same calls on
    [Covp] and [Partial]) re-validate every terminal list they edited
    and every index they merged into, header vector included; the store
    counts one validation per batch call.

    The flag is [false] by default — the hooks cost a pass over the nine
    touched structures per mutation — and can be switched on for a
    process by exporting [HEXASTORE_DEBUG=1] (or [true]/[on]). *)

val enabled : bool ref
(** Gate for the insert/delete validation hooks.  Defaults to [false]
    unless the [HEXASTORE_DEBUG] environment variable says otherwise. *)

val validation_count : unit -> int
(** Number of times a hook has actually run since process start.  Lets
    tests prove the guard is off by default without provoking a
    corruption. *)

val note_validation : unit -> unit
(** Called by the hooks; exposed for the store only. *)
