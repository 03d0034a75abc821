"""The package's export list is derived from the names ``__init__``
binds; these tests pin what that derivation yields."""

from __future__ import annotations

from types import ModuleType

import reachkeep

PUBLIC_NAMES = [
    "BoundsError", "BridgeWitness", "Condensation", "CondensingPreserver",
    "CyclicGraphError", "DirectedGraph", "EXHAUSTIVE_EDGE_LIMIT", "EdgeStore",
    "ExtremalSurrogate", "FIRST_T", "GrowthMode", "HIT", "IncrementalClosure",
    "InfeasiblePairError", "InstanceFamily", "MissingEntryError", "MonitorReport",
    "OrderConstraint", "PairRecord", "ParameterError", "ParseError", "PathSystem",
    "PathTable", "RESIDUAL", "ReachkeepError", "RunManifest", "SessionReport",
    "SizeLimitError", "THIN", "TRIVIAL", "UdsnParams", "UdsnRecord", "UdsnSession",
    "VerificationResult", "WHILE_LOOP", "bench_cell", "bench_grid", "bench_sweep", "bfs_route",
    "canonical_json", "condense", "default_surrogate", "dump_graph", "find_k_bridge",
    "generate", "greedy_adversary_step", "grow_backwards", "grow_forwards", "hash_json",
    "hash_text", "hit_by", "is_acyclic", "is_thin", "load_graph", "load_manifest",
    "min_preserver", "precompute_index_sensitive", "precompute_known_p", "primary_rows",
    "reachable_set", "rng_for", "save_manifest", "select_entry",
    "size_envelope_general", "size_envelope_source_restricted",
    "split_seed", "surrogate_monitor", "verify_all", "verify_session",
]


def test_export_list_is_the_pinned_public_names():
    assert sorted(reachkeep.__all__) == PUBLIC_NAMES


def test_no_module_is_exported():
    assert [n for n in reachkeep.__all__ if isinstance(getattr(reachkeep, n), ModuleType)] == []
