"""Command-line plumbing: flags, exit codes, record and CSV formats."""

import csv
import json
import os
import random

from dataclasses import replace

import pytest
from click.testing import CliRunner

from qsepmc import cli
from qsepmc.cli import (
    CSV_HEADER,
    OutputRecord,
    SCHEMA_VERSION,
    SUITE_ROWS,
    make_record,
    main,
    row_passes,
)
from qsepmc.ensembles import EnsembleSpec
from qsepmc.errors import RunAborted
from qsepmc.estimator import RunConfig, RunStatistics, report, run


@pytest.fixture()
def runner():
    return CliRunner()


def invoke_run(runner, *extra):
    args = [
        "run", "--ensemble", "hs", "--dims", "2x2", "--rank", "4",
        "--samples", "2000", "--seed", "5", "--streams", "1", *extra,
    ]
    return runner.invoke(main, args)


def test_run_emits_schema_versioned_record(runner):
    result = invoke_run(runner)
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    assert record["schema"] == SCHEMA_VERSION
    cfg = record["config"]
    assert (cfg["measure"], cfg["d_A"], cfg["d_B"], cfg["rank"]) == ("hs", 2, 2, 4)
    assert cfg["n_samples"] == 2000 and cfg["seed"] == 5
    rep = record["report"]
    assert 0.0 <= rep["ci95"][0] <= rep["p_sep"] <= rep["ci95"][1] <= 1.0
    assert len(rep["per_bin"]) == 20
    assert set(record["provenance"]) == {"seed", "n_streams", "build", "timestamp"}
    # the serialized record parses back to equal values
    assert OutputRecord.from_dict(record).to_dict() == record


def test_run_writes_json_file(runner, tmp_path):
    out = tmp_path / "res.json"
    result = invoke_run(runner, "--json", str(out))
    assert result.exit_code == 0
    assert result.output == ""
    assert json.loads(out.read_text())["schema"] == SCHEMA_VERSION


def test_run_writes_bin_csv(runner, tmp_path):
    out = tmp_path / "bins.csv"
    result = invoke_run(runner, "--bins", "10", "--csv", str(out))
    assert result.exit_code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 10
    total = 0
    for row in rows[1:]:
        assert float(row[0]) < float(row[1])
        total += int(row[2])
        if row[2] == "0":
            assert row[4] == row[5] == row[6] == ""
        else:
            p, lo, hi = float(row[4]), float(row[5]), float(row[6])
            assert 0.0 <= lo <= p <= hi <= 1.0
    assert total == 2000


def test_streams_default_follows_affinity_mask(runner, monkeypatch):
    # under `taskset -c 0` the affinity mask holds one CPU of a larger machine
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    args = ["run", "--ensemble", "hs", "--dims", "2x2", "--rank", "4", "--samples", "300"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["config"]["n_streams"] == 1
    # without affinity support the CPU count is the default
    monkeypatch.delattr(os, "sched_getaffinity")
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["config"]["n_streams"] == 8


def test_run_rank_out_of_range_is_usage_error(runner):
    result = runner.invoke(
        main, ["run", "--ensemble", "hs", "--dims", "2x2", "--rank", "9", "--samples", "10"]
    )
    assert result.exit_code == 2
    assert "rank must be in 1..4" in result.output


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--ppt-tol", "nan"),
        ("--ppt-tol", "inf"),
        ("--ppt-tol", "-1"),
        ("--samples", "0"),
        ("--bins", "0"),
        ("--streams", "0"),
        ("--seed", "-1"),
        ("--seed", str(1 << 64)),
    ],
)
def test_run_invalid_setting_is_usage_error(runner, flag, value):
    # the stream count must not decide whether a bad setting is caught
    for streams in ("1", "2"):
        result = runner.invoke(
            main,
            ["run", "--ensemble", "hs", "--dims", "2x2", "--rank", "4", "--samples", "10",
             "--streams", streams, flag, value],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Usage" in result.output


def test_run_seed_range_boundaries(runner):
    # 0 and 2**64 - 1 are distinct valid seeds at one and two streams
    for streams in ("1", "2"):
        results = {}
        for seed in ("0", str((1 << 64) - 1)):
            result = runner.invoke(
                main,
                ["run", "--ensemble", "hs", "--dims", "2x2", "--rank", "4", "--samples", "300",
                 "--seed", seed, "--streams", streams],
            )
            assert result.exit_code == 0, result.output
            record = json.loads(result.output)
            assert record["config"]["seed"] == int(seed)
            results[seed] = record["report"]["per_bin"]
        assert results["0"] != results[str((1 << 64) - 1)]


@pytest.mark.parametrize(
    "flag,value", [("--samples", "0"), ("--streams", "0"), ("--seed", str((1 << 64) - 5))]
)
def test_table_suite_invalid_setting_is_usage_error(runner, flag, value):
    result = runner.invoke(main, ["table-suite", "--only", "rank1", flag, value])
    assert result.exit_code == 2, result.output
    assert "verdict" not in result.output


@pytest.mark.parametrize(
    "args", [["run", "--ensemble", "hs", "--dims", "2x2", "--rank", "4"], ["table-suite", "--only", "rank1"]]
)
def test_runtime_error_prints_message_and_exits_1(runner, monkeypatch, args):
    def aborted(config):
        raise RunAborted("run aborted: worker died")

    monkeypatch.setattr(cli, "run_estimator", aborted)
    result = runner.invoke(main, [*args, "--samples", "10", "--streams", "1"])
    assert result.exit_code == 1
    assert result.stderr == "run aborted: worker died\n"
    assert "PASS" not in result.stdout and "schema" not in result.stdout


def test_run_rejects_unknown_ensemble_and_dims(runner):
    for args in (["--ensemble", "ppt", "--dims", "2x2"], ["--ensemble", "hs", "--dims", "3x3"]):
        result = runner.invoke(main, ["run", *args, "--rank", "1", "--samples", "10"])
        assert result.exit_code == 2


def test_table_suite_reports_all_rows_and_consistent_exit_code(runner):
    result = runner.invoke(main, ["table-suite", "--samples", "400", "--seed", "9", "--streams", "1"])
    lines = [l for l in result.output.splitlines() if l and not l.startswith("row")]
    assert len(lines) == len(SUITE_ROWS)
    verdicts = {l.split()[0]: l.split()[-1] for l in lines}
    assert set(verdicts.values()) <= {"PASS", "FAIL"}
    assert result.exit_code == (0 if all(v == "PASS" for v in verdicts.values()) else 1)
    # zero-probability rows are construction-independent and always pass
    for key in ("hs-2x2-rank2", "hs-2x2-rank1", "bures-2x2-rank2", "bures-2x2-rank1"):
        assert verdicts[key] == "PASS"
    # wide intervals at small n cover the full-rank references
    assert verdicts["hs-2x2-rank4"] == "PASS"
    assert verdicts["bures-2x2-rank4"] == "PASS"


def test_table_suite_only_selects_zero_rows(runner):
    result = runner.invoke(
        main,
        ["table-suite", "--samples", "300", "--streams", "1", "--only", "rank2,rank1"],
    )
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if l and not l.startswith("row")]
    assert len(lines) == 4
    assert {l.split()[0] for l in lines} == {
        "hs-2x2-rank2", "hs-2x2-rank1", "bures-2x2-rank2", "bures-2x2-rank1",
    }


def test_table_suite_only_without_match_is_usage_error(runner):
    result = runner.invoke(main, ["table-suite", "--only", "rank9"])
    assert result.exit_code == 2


def test_row_pass_semantics():
    zero_row = SUITE_ROWS[5]
    assert zero_row.reference == 0.0
    rep = report(run(RunConfig(spec=EnsembleSpec("hs", 2, 2, 2), n_samples=500, seed=1)))
    assert row_passes(zero_row, 0, rep)
    assert not row_passes(zero_row, 1, rep)

    value_row = SUITE_ROWS[0]
    wide = report(run(RunConfig(spec=EnsembleSpec("hs", 2, 2, 4), n_samples=500, seed=1)))
    assert row_passes(value_row, 0, wide)  # interval covers the reference


def test_record_round_trip_over_random_configs():
    rng = random.Random(12345)
    for _ in range(100):
        d_b = rng.choice([2, 3])
        spec = EnsembleSpec(rng.choice(["hs", "bures"]), 2, d_b, rng.randint(1, 2 * d_b))
        config = RunConfig(
            spec=spec,
            n_samples=rng.randint(1, 10**9),
            seed=rng.randint(0, 2**63),
            n_streams=rng.randint(1, 64),
            n_bins=rng.randint(1, 50),
            ppt_tol=rng.choice([1e-10, 1e-9, 0.0]),
        )
        bin_total, bin_separable = [], []
        for _ in range(config.n_bins):
            t = rng.randint(0, 1000)
            bin_total.append(t)
            bin_separable.append(rng.randint(0, t) if t else 0)
        if sum(bin_total) == 0:
            bin_total[0] = 1
        stats = RunStatistics(
            bin_total=tuple(bin_total), bin_separable=tuple(bin_separable), config=config
        )
        record = make_record(config, report(stats))
        round_tripped = OutputRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert round_tripped == record


# The record of one fixed run, one bin empty, as qsep-mc/1 writes it: key
# order, layout and float text are part of the format.
PINNED_RECORD = """\
{
  "schema": "qsep-mc/1",
  "config": {
    "measure": "bures",
    "d_A": 2,
    "d_B": 3,
    "rank": 5,
    "n_samples": 10,
    "seed": 7,
    "n_streams": 3,
    "n_bins": 3,
    "ppt_tol": 1e-09
  },
  "report": {
    "p_sep": 0.3,
    "std_error": 0.14491376746189438,
    "ci95": [
      0.10779126740630099,
      0.6032218525388546
    ],
    "per_bin": [
      {
        "radius_lo": 0.0,
        "radius_hi": 0.3333333333333333,
        "total": 4,
        "separable": 1,
        "p_sep": 0.25,
        "ci95": [
          0.04558726080970055,
          0.6993581574175981
        ]
      },
      {
        "radius_lo": 0.3333333333333333,
        "radius_hi": 0.6666666666666666,
        "total": 0,
        "separable": 0,
        "p_sep": null,
        "ci95": null
      },
      {
        "radius_lo": 0.6666666666666666,
        "radius_hi": 1.0,
        "total": 6,
        "separable": 2,
        "p_sep": 0.3333333333333333,
        "ci95": [
          0.09677141110578041,
          0.700006684861608
        ]
      }
    ]
  },
  "provenance": {
    "seed": 7,
    "n_streams": 3,
    "build": "0.1.0",
    "timestamp": "2026-01-02T03:04:05+00:00"
  }
}"""


def test_record_text_is_pinned():
    config = RunConfig(
        spec=EnsembleSpec("bures", 2, 3, 5), n_samples=10, seed=7, n_streams=3, n_bins=3,
        ppt_tol=1e-9,
    )
    stats = RunStatistics(bin_total=(4, 0, 6), bin_separable=(1, 0, 2), config=config)
    record = replace(make_record(config, report(stats)), timestamp="2026-01-02T03:04:05+00:00")
    assert json.dumps(record.to_dict(), indent=2) == PINNED_RECORD
    loaded = OutputRecord.from_dict(json.loads(PINNED_RECORD))
    assert loaded == record
    assert json.dumps(loaded.to_dict(), indent=2) == PINNED_RECORD
