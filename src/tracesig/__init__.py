"""Post-mortem detection of user actions from timestamp evidence.

The package derives signatures describing which file and registry timestamps
an action updates, generalizes their paths across machines, and matches the
signatures against a single after-the-fact snapshot to decide whether and
when the action ran.  A deterministic simulator provides ground truth for
validating the pipeline end to end.

The root re-exports the names callers import from it; everything else is
imported from its module (``tracesig.evidence``, ``tracesig.matching``, ...).
The simulator's names (``load_scenario``, ``oracle_compare``, ``run_scenario``
and ``write_scenario_outputs``) load ``tracesig.simulate`` on first use, so
importing the package or the CLI does not pay for the simulator.
"""

from .capture import TraceNameSet
from .categorize import CategoryLabel, TraceCategory, build_update_matrix, read_observations
from .evidence import (
    ArtifactRecord,
    RecordKind,
    Snapshot,
    SnapshotMeta,
    TimePoint,
    format_timestamp,
    parse_snapshot,
    parse_timestamp,
    save_snapshot,
)
from .matching import match_signature
from .signatures import bundled_signature, load_signature

__version__ = "0.1.0"

__all__ = [
    "ArtifactRecord",
    "CategoryLabel",
    "RecordKind",
    "Snapshot",
    "SnapshotMeta",
    "TimePoint",
    "TraceCategory",
    "TraceNameSet",
    "__version__",
    "build_update_matrix",
    "bundled_signature",
    "format_timestamp",
    "load_scenario",
    "load_signature",
    "match_signature",
    "oracle_compare",
    "parse_snapshot",
    "parse_timestamp",
    "read_observations",
    "run_scenario",
    "save_snapshot",
    "write_scenario_outputs",
]

_SIMULATE_NAMES = frozenset(
    {"load_scenario", "oracle_compare", "run_scenario", "write_scenario_outputs"}
)


def __getattr__(name: str) -> object:
    """Resolve the simulator's names on first access (PEP 562)."""
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
