"""Set-up probe: a fresh interpreter imports qsepmc and classifies one batch.

The first batch pays for lazy LAPACK and einsum initialisation, so the wall
time of this whole process is what a user waits before the first result.
The batch is always stream 0 of seed 0, so every probe does the same work.

Usage: python3 warmup.py MEASURE D_B RANK
"""

import sys

from qsepmc.ensembles import EnsembleSpec, sample_states
from qsepmc.estimator import BATCH_SIZE, classify_states
from qsepmc.rng import RngStream


def main(argv):
    measure, d_b, rank = argv
    spec = EnsembleSpec(measure, 2, int(d_b), int(rank))
    states = sample_states(spec, RngStream(0, 0), BATCH_SIZE)
    classify_states(states, (spec.d_A, spec.d_B))


if __name__ == "__main__":
    main(sys.argv[1:])
