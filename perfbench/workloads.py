"""The benchmark's workloads: inputs generated from a seed, and the operations run on them.

Each workload is a closed loop with one client: its operations run one after
another, each as a fresh interpreter (see driver.py), so import cost and
memory are paid per operation as a command-line user pays them.  A pass is
one run of all of a workload's operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from refcheck import CheckError, Checker

ALPHAS = [0.05, 0.001]
ALPHA_ARGS = [arg for a in ALPHAS for arg in ("--alpha", str(a))]

# The published experiment: N=6, Phi+, 1398 blocks of 100 trials, the 50th
# scored, g=8 heralding.  Every field is written out so that a change of the
# program's defaults does not change the workload.
PAPER_CONFIG = {
    "N": 6,
    "mode": "correlation",
    "source": {"type": "quantum", "state": "phi_plus",
               "noise": {"detection_flip_a": 0.0, "detection_flip_b": 0.0, "state_fidelity_mix": 0.0}},
    "protocol": {"blocks": 1398, "block_size": 100, "analyzed_index": 50},
    "herald": {"g": 8, "h_thres": 20, "bright_mean": 30.0, "dark_mean": 2.0},
    "collisions": {"event_rate": 1e-4, "recovery": "transient", "duration": 50},
    "detection": {"model": "counts", "threshold": 6, "bright_mean": 30.0, "dark_mean": 2.0},
}
REACTIVE = {"base": 0.5, "step": 0.1, "run_length": 3}
# 50,000 trials in blocks of 20.  Score-1 runs span whole blocks, and the
# reactive schedule rescans its trailing run on every trial, so the work grows
# with the square of those runs' lengths: with 100-trial blocks it varied by
# a third from seed to seed, with 20-trial blocks it varies far less.
ADVERSARY_CONFIG = {
    **PAPER_CONFIG,
    "source": {"type": "mixture", "schedule": {"type": "outcome_reactive", **REACTIVE}, "local": "minimal"},
    "protocol": {"blocks": 2500, "block_size": 20, "analyzed_index": 10},
    "collisions": {"event_rate": 0.0, "recovery": "permanent", "duration": 50},
    "detection": {"model": "ideal", "threshold": 6, "bright_mean": 30.0, "dark_mean": 2.0},
}
# Acceptance criterion 6's setting, for a constant and the reactive adversary.
COVERAGE = {
    "N": 6, "n": 500, "alpha": 0.05, "runs": 2000, "local": "minimal_local",
    "schedules": [{"class": "ConstantSchedule", "args": {"q": 0.5}},
                  {"class": "OutcomeReactiveSchedule", "args": REACTIVE}],
}
SWEEP = {"n_min": 2, "n_max": 15, "trials": 100000}


@dataclass(frozen=True)
class Op:
    """One operation: driver arguments, the files it writes, and its output check."""

    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Checker, str], None]  # (checker, stdout)


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    trials: int  # trials simulated per pass
    inputs: tuple[str, ...]  # generated input files, relative to the work directory


def _write(work: Path, name: str, obj: dict) -> str:
    (work / name).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return name


def paper_pipeline(seed: int, work: Path) -> Workload:
    cfg = _write(work, "paper.json", {**PAPER_CONFIG, "seed": seed})
    p = PAPER_CONFIG["protocol"]
    trials = p["blocks"] * p["block_size"]
    log = "paper.log"
    ops = (
        Op("simulate", ("cli", "simulate", cfg, log), (log,),
           lambda c, out: _check_simulate(c, out, work / log, trials)),
        Op("estimate", ("cli", "estimate", log, "--json", "estimate.json"), ("estimate.json",),
           lambda c, out: c.estimate(work / log, work / "estimate.json")),
        Op("certify", ("cli", "certify", log, *ALPHA_ARGS, "--json", "certify.json"), ("certify.json",),
           lambda c, out: c.certify(work / log, work / "certify.json", ALPHAS)),
        Op("fixture_certify",
           ("cli", "certify", "--fixture", "table_n6_randomized", *ALPHA_ARGS, "--json", "fixture.json"),
           ("fixture.json",), lambda c, out: c.fixture(work / "fixture.json")),
    )
    return Workload(ops, trials, (cfg,))


def sweep(seed: int, work: Path) -> Workload:
    spec = {**SWEEP, "seed": seed}
    cfg = _write(work, "sweep.json", spec)
    args = ("cli", "sweep", "sweep.tsv", "--n-min", str(spec["n_min"]), "--n-max", str(spec["n_max"]),
            "--trials", str(spec["trials"]), "--seed", str(seed))
    op = Op("sweep", args, ("sweep.tsv",),
            lambda c, out: c.sweep(work / "sweep.tsv", spec["n_min"], spec["n_max"], spec["trials"]))
    trials = (spec["n_max"] - spec["n_min"] + 1) * spec["trials"]
    return Workload((op,), trials, (cfg,))


def adversary(seed: int, work: Path) -> Workload:
    cfg = _write(work, "adversary.json", {**ADVERSARY_CONFIG, "seed": seed})
    cov = _write(work, "coverage.json", {**COVERAGE, "seed": seed})
    p = ADVERSARY_CONFIG["protocol"]
    sim_trials = p["blocks"] * p["block_size"]
    log = "adversary.log"
    ops = (
        Op("simulate", ("cli", "simulate", cfg, log), (log,),
           lambda c, out: _check_simulate(c, out, work / log, sim_trials)),
        Op("certify", ("cli", "certify", log, "--json", "certify.json"), ("certify.json",),
           lambda c, out: c.certify(work / log, work / "certify.json", [0.05])),
        Op("coverage", ("coverage", cov), (), lambda c, out: c.coverage(out)),
    )
    coverage_trials = len(COVERAGE["schedules"]) * COVERAGE["runs"] * COVERAGE["n"]
    return Workload(ops, sim_trials + coverage_trials, (cfg, cov))


def _check_simulate(checker: Checker, stdout: str, log: Path, trials: int) -> None:
    if not stdout.startswith(f"wrote {trials} trials"):
        raise CheckError(f"simulate reported {stdout.strip()!r}, expected {trials} trials")
    checker.log(log)


WORKLOADS = {"paper_pipeline": paper_pipeline, "sweep": sweep, "adversary": adversary}
