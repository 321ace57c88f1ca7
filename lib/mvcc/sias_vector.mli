(** SIAS-V: Snapshot Isolation Append Storage — Vectors.

    The variant demonstrated in the EDBT 2014 demo paper. Where
    SIAS-Chains links each tuple version to its predecessor individually,
    SIAS-V co-locates a data item's recent versions in a {e version
    vector}: one heap item holding up to {!vector_capacity} version
    records, newest first. The VID_map points at the item's current
    vector; reading any version of the item costs a single fetch instead
    of a chain walk. An update re-appends the vector with the new version
    prepended (the superseded copy becomes garbage that GC reclaims); when
    the vector is full its contents spill into an overflow vector and a
    fresh vector is started, so very old versions form a coarse-grained
    chain of vectors.

    Trade-off vs chains (measured by the ablation bench): reads of old
    snapshots touch far fewer pages; writes carry the vector's re-append
    amplification. All writes remain appends — the invalidation-free
    paradigm, visibility rules, indexing by VID, tombstone deletes and
    recovery-from-tuples are shared with SIAS-Chains: both are
    instantiations of {!Sias_core.Make}. *)

include Sias_core.S

val vector_capacity : int
(** Versions held per vector before spilling (4 in this implementation). *)
