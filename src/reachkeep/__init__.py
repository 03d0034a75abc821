"""Online reachability preservers, their verifiers, and a benchmark
harness. Graphs are directed, vertices are 0..n-1, and every online
structure only ever grows."""

from types import ModuleType as _ModuleType

from .errors import (
    BoundsError,
    CyclicGraphError,
    InfeasiblePairError,
    MissingEntryError,
    ParameterError,
    ParseError,
    ReachkeepError,
    SizeLimitError,
)
from .graphs import (
    Condensation,
    DirectedGraph,
    IncrementalClosure,
    condense,
    dump_graph,
    load_graph,
    reachable_set,
)
from .harness import (
    RunManifest,
    VerificationResult,
    bench_cell,
    bench_grid,
    bench_sweep,
    canonical_json,
    hash_json,
    hash_text,
    load_manifest,
    primary_rows,
    save_manifest,
    verify_all,
)
from .nonadaptive import (
    RESIDUAL,
    WHILE_LOOP,
    ExtremalSurrogate,
    MonitorReport,
    PathTable,
    default_surrogate,
    precompute_index_sensitive,
    precompute_known_p,
    select_entry,
    surrogate_monitor,
)
from .oracle import (
    EXHAUSTIVE_EDGE_LIMIT,
    InstanceFamily,
    generate,
    greedy_adversary_step,
    min_preserver,
)
from .pathsystem import (
    BridgeWitness,
    OrderConstraint,
    PathSystem,
    find_k_bridge,
    is_acyclic,
)
from .preserver import (
    CondensingPreserver,
    EdgeStore,
    GrowthMode,
    PairRecord,
    SessionReport,
    grow_backwards,
    grow_forwards,
    size_envelope_general,
    size_envelope_source_restricted,
    verify_session,
)
from .seeding import rng_for, split_seed
from .udsn import (
    FIRST_T,
    HIT,
    THIN,
    TRIVIAL,
    UdsnParams,
    UdsnRecord,
    UdsnSession,
    bfs_route,
    hit_by,
    is_thin,
)

__version__ = "0.1.0"

# Every public name bound above except the submodules.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
