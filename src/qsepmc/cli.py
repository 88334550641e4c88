"""Command-line front end: run one estimation or the whole reference table.

Results are emitted as a schema-versioned JSON record plus an optional
per-bin CSV, so downstream plotting never parses human-formatted text.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

import click

from . import __version__
from .ensembles import DIMS, MEASURES, EnsembleSpec
from .errors import QsepError
from .estimator import (
    BinReport,
    ProbabilityReport,
    RunConfig,
    report as build_report,
    run as run_estimator,
)
from .separability import PPT_TOL

SCHEMA_VERSION = "qsep-mc/1"

CSV_HEADER = ["radius_lo", "radius_hi", "total", "separable", "p_sep", "ci_lo", "ci_hi"]

_DIMS = {f"{d_a}x{d_b}": (d_a, d_b) for d_a, d_b in DIMS}


def _json_dict(items) -> dict:
    """``asdict`` factory: tuples become the lists that JSON parses back to."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in items}


def _from_fields(cls, data: dict, **given):
    """``cls`` from the entries of ``data`` named after its fields, except
    those in ``given``; a missing entry raises KeyError."""
    return cls(**{f.name: data[f.name] for f in fields(cls) if f.name not in given}, **given)


@dataclass(frozen=True)
class OutputRecord:
    """Self-describing result record; round-trips losslessly through JSON."""

    schema: str
    config: RunConfig
    report: ProbabilityReport
    build: str
    timestamp: str

    def to_dict(self) -> dict:
        config = asdict(self.config, dict_factory=_json_dict)
        spec = config.pop("spec")
        return {
            "schema": self.schema,
            "config": {**spec, **config},
            "report": asdict(self.report, dict_factory=_json_dict),
            "provenance": {
                "seed": self.config.seed,
                "n_streams": self.config.n_streams,
                "build": self.build,
                "timestamp": self.timestamp,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OutputRecord":
        cfg = data["config"]
        rep = data["report"]
        per_bin = tuple(
            _from_fields(BinReport, b, ci95=tuple(b["ci95"]) if b["ci95"] is not None else None)
            for b in rep["per_bin"]
        )
        prov = data["provenance"]
        return cls(
            schema=data["schema"],
            config=_from_fields(RunConfig, cfg, spec=_from_fields(EnsembleSpec, cfg)),
            report=_from_fields(ProbabilityReport, rep, ci95=tuple(rep["ci95"]), per_bin=per_bin),
            build=prov["build"],
            timestamp=prov["timestamp"],
        )


def make_record(config: RunConfig, rep: ProbabilityReport) -> OutputRecord:
    return OutputRecord(
        schema=SCHEMA_VERSION,
        config=config,
        report=rep,
        build=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def write_bin_csv(path: str, rep: ProbabilityReport) -> None:
    """One row per radius bin; empty cells mark bins with no samples."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for b in rep.per_bin:
            if b.total == 0:
                writer.writerow([repr(b.radius_lo), repr(b.radius_hi), 0, 0, "", "", ""])
            else:
                writer.writerow(
                    [
                        repr(b.radius_lo),
                        repr(b.radius_hi),
                        b.total,
                        b.separable,
                        repr(b.p_sep),
                        repr(b.ci95[0]),
                        repr(b.ci95[1]),
                    ]
                )


def _make_config(measure, d_a, d_b, rank, **settings) -> RunConfig:
    """RunConfig from command-line values; an invalid value, the rank
    included, is a usage error."""
    try:
        return RunConfig(spec=EnsembleSpec(measure, d_a, d_b, rank), **settings)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _estimate(config: RunConfig):
    """``(statistics, report)`` of one run; a runtime error prints its
    message and exits 1."""
    try:
        stats = run_estimator(config)
        return stats, build_report(stats)
    except QsepError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)


def _default_streams() -> int:
    """The ``--streams`` default: the CPUs this process may run on, which
    under an affinity mask (``taskset``, a container's cpuset) can be fewer
    than the machine has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@click.group()
@click.version_option(version=__version__, prog_name="qsep-mc")
def main():
    """Separability probabilities of random bipartite states by Monte-Carlo."""


@main.command("run")
@click.option("--ensemble", type=click.Choice(MEASURES), required=True)
@click.option("--dims", type=click.Choice(sorted(_DIMS)), required=True)
@click.option("--rank", type=int, required=True)
@click.option("--samples", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--streams", type=int, default=_default_streams, help="Worker processes [default: CPUs in the affinity mask].")
@click.option("--bins", type=int, default=RunConfig.n_bins, show_default=True, help="Bloch-radius bins over [0, 1].")
@click.option("--ppt-tol", type=float, default=PPT_TOL, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None, help="Write per-bin CSV here.")
@click.option("--json", "json_dest", default="stdout", show_default=True, help="Record destination: a path or 'stdout'.")
def run_command(ensemble, dims, rank, samples, seed, streams, bins, ppt_tol, csv_path, json_dest):
    """Estimate one configuration and emit a JSON record."""
    config = _make_config(
        ensemble,
        *_DIMS[dims],
        rank,
        n_samples=samples,
        seed=seed,
        n_streams=streams,
        n_bins=bins,
        ppt_tol=ppt_tol,
    )
    _, rep = _estimate(config)
    record = make_record(config, rep)
    payload = json.dumps(record.to_dict(), indent=2)
    if json_dest == "stdout":
        click.echo(payload)
    else:
        with open(json_dest, "w") as fh:
            fh.write(payload + "\n")
    if csv_path is not None:
        write_bin_csv(csv_path, rep)


@dataclass(frozen=True)
class SuiteRow:
    """One reference configuration with its target value and pass tolerance."""

    key: str
    measure: str
    d_A: int
    d_B: int
    rank: int
    reference: float
    tolerance: float
    default_samples: int

    @property
    def tags(self) -> set[str]:
        return {self.key, self.measure, f"{self.d_A}x{self.d_B}", f"rank{self.rank}"}


SUITE_ROWS = (
    SuiteRow("hs-2x2-rank4", "hs", 2, 2, 4, 0.2424, 0.002, 1_000_000),
    SuiteRow("hs-2x3-rank6", "hs", 2, 3, 6, 0.0270, 0.0010, 1_000_000),
    SuiteRow("bures-2x2-rank4", "bures", 2, 2, 4, 0.0733, 0.0015, 1_000_000),
    SuiteRow("bures-2x3-rank6", "bures", 2, 3, 6, 0.0014, 0.0003, 2_000_000),
    SuiteRow("hs-2x2-rank3", "hs", 2, 2, 3, 0.1652, 0.002, 1_000_000),
    SuiteRow("hs-2x2-rank2", "hs", 2, 2, 2, 0.0, 0.0, 100_000),
    SuiteRow("hs-2x2-rank1", "hs", 2, 2, 1, 0.0, 0.0, 100_000),
    SuiteRow("bures-2x2-rank3", "bures", 2, 2, 3, 0.0494, 0.0015, 1_000_000),
    SuiteRow("bures-2x2-rank2", "bures", 2, 2, 2, 0.0, 0.0, 100_000),
    SuiteRow("bures-2x2-rank1", "bures", 2, 2, 1, 0.0, 0.0, 100_000),
)


def row_passes(row: SuiteRow, stats_separable: int, rep: ProbabilityReport) -> bool:
    """Zero rows demand exactly zero hits; value rows pass inside the
    tolerance band or when the interval covers the reference."""
    if row.reference == 0.0:
        return stats_separable == 0
    in_band = abs(rep.p_sep - row.reference) <= row.tolerance
    covered = rep.ci95[0] <= row.reference <= rep.ci95[1]
    return in_band or covered


@main.command("table-suite")
@click.option("--samples", type=int, default=None, help="Override every row's sample count.")
@click.option("--seed", type=int, default=42, show_default=True, help="Base seed; row i uses seed + i.")
@click.option("--streams", type=int, default=_default_streams, help="Worker processes [default: CPUs in the affinity mask].")
@click.option("--only", type=str, default=None, help="Comma-separated row keys or tags (e.g. rank2,rank1).")
def table_suite_command(samples, seed, streams, only):
    """Run the ten reference configurations and print estimate vs reference."""
    rows = SUITE_ROWS
    if only:
        tokens = {t.strip() for t in only.split(",") if t.strip()}
        rows = tuple(r for r in rows if tokens & r.tags)
        if not rows:
            raise click.UsageError(f"no rows match --only {only!r}")
    configs = [
        (
            row,
            _make_config(
                row.measure,
                row.d_A,
                row.d_B,
                row.rank,
                n_samples=samples if samples is not None else row.default_samples,
                seed=seed + i,
                n_streams=streams,
            ),
        )
        for i, row in enumerate(SUITE_ROWS)
        if row in rows
    ]
    click.echo(f"{'row':18s} {'reference':>9s} {'estimate':>9s} {'ci95':>24s}  verdict")
    all_pass = True
    for row, config in configs:
        stats, rep = _estimate(config)
        ok = row_passes(row, stats.separable, rep)
        all_pass = all_pass and ok
        ci = f"[{rep.ci95[0]:.6f}, {rep.ci95[1]:.6f}]"
        click.echo(
            f"{row.key:18s} {row.reference:9.4f} {rep.p_sep:9.6f} {ci:>24s}  "
            f"{'PASS' if ok else 'FAIL'}"
        )
    sys.exit(0 if all_pass else 1)


if __name__ == "__main__":
    main()
