"""Random bipartite quantum states and Monte-Carlo separability probabilities.

Generates density matrices of 2x2 and 2x3 systems from the Hilbert-Schmidt
and Bures ensembles at full or fixed rank, classifies them with the PPT
criterion, and estimates separability probabilities globally and per
Bloch-radius bin.
"""

__version__ = "0.1.0"

from .ensembles import (
    DensityMatrix,
    EnsembleSpec,
    bures_state,
    hs_state,
    sample_state,
    sample_states,
)
from .errors import (
    ConfigMismatch,
    DimensionMismatch,
    EmptyRun,
    NoConvergence,
    NotHermitian,
    QsepError,
    RankCollapse,
    RunAborted,
    UnsupportedDimensions,
)
from .estimator import (
    ProbabilityReport,
    RunConfig,
    RunStatistics,
    bin_flatness_violations,
    merge,
    report,
    run,
    wilson_interval,
)
from .rng import RngStream
from .separability import (
    BlochVector,
    SeparabilityVerdict,
    audit_ranks,
    bloch_vector,
    classify_states,
    ppt_verdict,
    rank_witness,
)

__all__ = [
    "BlochVector",
    "ConfigMismatch",
    "DensityMatrix",
    "DimensionMismatch",
    "EmptyRun",
    "EnsembleSpec",
    "NoConvergence",
    "NotHermitian",
    "ProbabilityReport",
    "QsepError",
    "RankCollapse",
    "RngStream",
    "RunAborted",
    "RunConfig",
    "RunStatistics",
    "SeparabilityVerdict",
    "UnsupportedDimensions",
    "audit_ranks",
    "bin_flatness_violations",
    "bloch_vector",
    "bures_state",
    "classify_states",
    "hs_state",
    "merge",
    "ppt_verdict",
    "rank_witness",
    "report",
    "run",
    "sample_state",
    "sample_states",
    "wilson_interval",
]
