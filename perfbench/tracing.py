"""In-memory tracing of qsepmc's layers from outside the package.

The tracer replaces public functions of the ``rng``, ``ensembles``,
``linalg`` and ``estimator`` modules with timing wrappers for the duration of
a ``with tracer.installed():`` block and restores them afterwards.  Spans are
aggregated per 4096-state batch, keyed by ``(name, parent name)``, so a layer's
self time is its total minus the totals of the spans it caused.  A batch
starts at each ``sample_states`` call that ``estimator`` makes.

Only serial runs are traced: with one stream ``run`` processes every batch in
this process, so the wrappers see every call.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

from qsepmc import ensembles, estimator, linalg, rng

#: Samples within this multiple of ``ppt_tol`` of the PPT boundary are the
#: ones a change of ``--ppt-tol`` could flip.
NEAR_BOUNDARY_FACTOR = 100

STATE_SPANS = ("ensembles.assemble_rank_deficient", "ensembles.hs_state", "ensembles.bures_state")
PARTIAL_SPANS = ("linalg.partial_transpose", "linalg.partial_trace")


class Batch:
    """Aggregated spans and exact counts of one batch."""

    def __init__(self, run_index: int):
        self.run_index = run_index
        self.spans = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, seconds]
        self.extra_draws = 0
        self.near_boundary = 0

    def seconds(self, names, parent=None, exclude_parents=()) -> float:
        return sum(
            s
            for (name, par), (_, s) in self.spans.items()
            if name in names and (parent is None or par == parent) and par not in exclude_parents
        )

    def calls(self, name) -> int:
        return sum(c for (n, _), (c, _) in self.spans.items() if n == name)

    @property
    def replayed(self) -> bool:
        return self.calls("ensembles.sample_state") > 0

    @property
    def busy_seconds(self) -> float:
        """Time ``run`` spends on this batch: sampling plus classification."""
        return self.seconds(("ensembles.sample_states", "estimator.classify_states"))

    def to_dict(self) -> dict:
        return {
            "run": self.run_index,
            "extra_draws": self.extra_draws,
            "near_boundary": self.near_boundary,
            "spans": [
                {"name": n, "parent": p, "calls": c, "seconds": s}
                for (n, p), (c, s) in self.spans.items()
            ],
        }


class Tracer:
    """Records spans around calls into the package's layers.

    ``run_index`` is called at each batch start to tag the batch with the
    ``estimator.run`` call it belongs to.
    """

    def __init__(self, run_index):
        self.batches: list[Batch] = []
        self._run_index = run_index
        self._outside = Batch(-1)
        self._stack: list[str] = []

    def _current(self) -> Batch:
        return self.batches[-1] if self.batches else self._outside

    def span(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                rec = self._current().spans[(name, parent)]
                rec[0] += 1
                rec[1] += dt

        return traced

    def _batch_sampler(self, fn):
        """``sample_states`` as ``run`` calls it: opens a batch, counts extra draws."""
        timed = self.span("ensembles.sample_states", fn)

        def sample_states(spec, stream, count):
            self.batches.append(Batch(self._run_index()))
            states = timed(spec, stream, count)
            self.batches[-1].extra_draws = (
                stream.draws - ensembles.uniform_draws_per_sample(spec) * count
            )
            return states

        return sample_states

    def _classifier(self, fn):
        timed = self.span("estimator.classify_states", fn)

        def classify_states(states, dims, ppt_tol=estimator.PPT_TOL):
            cls = timed(states, dims, ppt_tol)
            band = NEAR_BOUNDARY_FACTOR * ppt_tol
            self._current().near_boundary += int(np.count_nonzero(np.abs(cls.min_pt_eigenvalue) <= band))
            return cls

        return classify_states

    def _targets(self):
        def traced(name):
            return lambda fn: self.span(name, fn)

        return [
            (estimator, "sample_states", self._batch_sampler),
            (estimator, "classify_states", self._classifier),
            (ensembles, "sample_state", traced("ensembles.sample_state")),
            (ensembles, "assemble_rank_deficient", traced("ensembles.assemble_rank_deficient")),
            (ensembles, "hs_state", traced("ensembles.hs_state")),
            (ensembles, "bures_state", traced("ensembles.bures_state")),
            (ensembles, "complex_normals_from_uniforms", traced("rng.box_muller")),
            (rng, "complex_normals_from_uniforms", traced("rng.box_muller")),
            (rng.RngStream, "uniforms", traced("rng.uniforms")),
            (linalg, "hermitian_eigenvalues", traced("linalg.hermitian_eigenvalues")),
            (linalg, "numerical_rank", traced("linalg.numerical_rank")),
            (linalg, "partial_transpose", traced("linalg.partial_transpose")),
            (linalg, "partial_trace", traced("linalg.partial_trace")),
        ]

    @contextlib.contextmanager
    def installed(self):
        with patched(self._targets()):
            yield self

    def to_dict(self) -> dict:
        return {"batches": [b.to_dict() for b in self.batches]}


@contextlib.contextmanager
def patched(targets):
    """Replace ``owner.attr`` with ``make(original)`` for each target; restore on exit."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
