"""Tests of the benchmark's own parts: span arithmetic, the reference checker,
the traced driver and the metric catalog.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import driver
import refcheck
import run
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_the_union_of_children_within_the_parent():
    # 0: [0, 100] root; children 1 and 2 overlap, 3 has a child 4, 5 overruns the root.
    parent = np.array([-1, 0, 0, 0, 3, 0])
    start = np.array([0, 10, 20, 60, 62, 90])
    end = np.array([100, 30, 50, 70, 65, 120])
    own = spans.self_times(parent, start, end)
    assert own.tolist() == [100 - (40 + 10 + 10), 20, 30, 10 - 3, 3, 30]


def test_recorder_nests_spans_and_counts(tmp_path):
    rec = spans.Recorder()
    inner = rec.span("inner", lambda x: x + 1, count=lambda a, k, r: {"items": r})
    outer = rec.span("outer", lambda: inner(1) + inner(2))
    tick = rec.counter("tick", lambda: None)
    assert outer() == 5
    tick()
    rec.save(tmp_path / "s.npz")
    summary, counters = spans.summarize([tmp_path / "s.npz"])
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert counters["inner.items"] == 5 and counters["tick.calls"] == 1
    inner_total = summary["inner"]["total_s"]
    assert summary["outer"]["self_s"] == pytest.approx(summary["outer"]["total_s"] - inner_total, abs=1e-9)
    assert summary["inner"]["self_s"] == pytest.approx(inner_total, abs=1e-12)


def test_importtime_counts_chainbell_and_outermost_scipy_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        40 |         40 | site",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:        10 |        360 |   scipy.special",
        "import time:        30 |         30 |   chainbell.chain",
        "import time:         5 |        395 | chainbell",
        "import time:         7 |          7 | chainbell.cli",
    ])
    assert run.parse_importtime(stderr) == (402e-6, 360e-6)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A small simulated log with the estimate and certify reports chainbell wrote for it."""
    from chainbell import ChainParams, ProtocolSpec, QuantumSource, phi_plus, run_protocol
    from chainbell.cli import main
    from chainbell.logfile import LogHeader, write_log

    work = tmp_path_factory.mktemp("small")
    protocol = ProtocolSpec(blocks=60, block_size=5, analyzed_index=3)
    records = run_protocol(QuantumSource(phi_plus()), ChainParams(3), protocol, seed=3)
    log = work / "run.log"
    write_log(log, LogHeader(N=3, blocks=60, block_size=5, analyzed_index=3, seed=3), records)
    assert main(["estimate", str(log), "--json", str(work / "estimate.json")]) == 0
    assert main(["certify", str(log), "--alpha", "0.05", "--json", str(work / "certify.json")]) == 0
    return work


def test_checker_accepts_chainbell_outputs(small_run):
    checker = refcheck.Checker()
    checker.estimate(small_run / "run.log", small_run / "estimate.json")
    checker.certify(small_run / "run.log", small_run / "certify.json", [0.05])


def _flip_first_analyzed_outcome(src: Path, dst: Path) -> None:
    lines = src.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.split(" ")
        if not line.startswith("#") and fields[0] == "2" and fields[6] == "1":  # block 0's scored trial
            fields[4] = "D" if fields[4] == "B" else "B"
            lines[i] = " ".join(fields)
            break
    else:
        raise AssertionError("no heralded scored trial in block 0")
    dst.write_text("".join(lines))


def test_checker_flags_a_log_with_one_flipped_outcome(small_run, tmp_path):
    flipped = tmp_path / "run.log"
    _flip_first_analyzed_outcome(small_run / "run.log", flipped)
    with pytest.raises(refcheck.CheckError, match="estimate"):
        refcheck.Checker().estimate(flipped, small_run / "estimate.json")
    with pytest.raises(refcheck.CheckError, match=r"\(t, n\)"):
        refcheck.Checker().certify(flipped, small_run / "certify.json", [0.05])


@pytest.mark.parametrize("delta", [1e-4, -1e-4])
def test_checker_flags_a_report_with_a_perturbed_p_hat(small_run, tmp_path, delta):
    report = json.loads((small_run / "certify.json").read_text())
    report["bounds"][0]["p_hat"] += delta
    (tmp_path / "certify.json").write_text(json.dumps(report))
    with pytest.raises(refcheck.CheckError, match="p_hat"):
        refcheck.Checker().certify(small_run / "run.log", tmp_path / "certify.json", [0.05])


def test_checker_flags_log_bytes_that_change_between_repeats(small_run, tmp_path):
    log = tmp_path / "run.log"
    log.write_bytes((small_run / "run.log").read_bytes())
    checker = refcheck.Checker()
    checker.log(log)
    _flip_first_analyzed_outcome(small_run / "run.log", log)
    with pytest.raises(refcheck.CheckError, match="bytes differ"):
        checker.log(log)


def test_every_wrapped_name_resolves_with_its_rebindings():
    import chainbell.cli  # noqa: F401  (binds the aliases the driver must also wrap)

    found = set()
    for entry in driver.TARGETS + driver.COUNTED:
        sites, original = driver.resolve(entry[1], entry[2])
        assert callable(original) and sites, entry
        found |= {(getattr(owner, "__name__", ""), key) for owner, key in sites}
    for alias in [("chainbell.cli", "read_log"), ("chainbell.simulate", "t_statistic"),
                  ("chainbell.cli", "local_content_bound"), ("chainbell.certify", "binomial_tail"),
                  ("chainbell.cli", "run_protocol"), ("chainbell.cli", "main")]:
        assert alias in found, alias


def test_traced_fixture_certify_records_its_layers(tmp_path):
    out = tmp_path / "spans.npz"
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    proc = subprocess.run(
        [sys.executable, str(HERE / "driver.py"), "--trace", str(out), "cli", "certify",
         "--fixture", "table_n6_randomized", "--alpha", "0.05", "--alpha", "0.001",
         "--json", str(tmp_path / "fixture.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary, counters = spans.summarize([out])
    assert summary["cli.main"]["calls"] == 1
    assert summary["fixtures.load_table"]["calls"] >= 1
    assert summary["certify.local_content_bound"]["calls"] == 2
    assert counters["certify.binomial_tail.calls"] > 0
    refcheck.Checker().fixture(tmp_path / "fixture.json")


def test_catalog_agrees_with_benchmark_json_and_the_runner(tmp_path):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    catalog = run.CATALOG
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            spec = catalog[kind][m["name"]]
            assert (m["unit"], m["better"], m.get("bound")) == (spec["unit"], spec["better"], spec.get("bound"))
    assert [m["name"] for m in bench["per_layer"]] == list(catalog["per_layer"])
    from_spans = set(run.layer_values({}, Counter()))
    assert from_spans | {"cli.import_s", "cli.import_scipy_s", "trace.overhead_frac"} == set(catalog["per_layer"])
    for name, build in WORKLOADS.items():
        for op in build(1, tmp_path).ops:
            assert name in catalog["end_to_end"][f"{op.name}_s"].get("workloads", [name])
