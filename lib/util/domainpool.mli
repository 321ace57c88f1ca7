(** Parallel execution over OCaml 5 domains.

    Shared-nothing model: each domain runs its own share of the work on
    data it owns, and the only cross-domain traffic is the result it
    returns. See DESIGN.md "Multicore execution model". *)

val run : domains:int -> (int -> 'a) -> 'a array
(** [run ~domains f] evaluates [f i] for each domain index
    [0 <= i < domains] in parallel and returns results in index order.
    [domains = 1] runs inline on the caller (no spawn) so the
    deterministic single-domain path is untouched. If a worker raises,
    the first exception is re-raised after every domain has joined. *)
