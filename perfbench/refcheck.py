"""Reference checks on the outputs of chainbell operations.

Independent of chainbell: logs are parsed with numpy, the chain estimate and
the certified score ``(t, n)`` are recomputed from the raw rows, and each
``p_hat`` is bracketed with scipy's binomial survival function.  Every check
raises CheckError with a one-line reason.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import binom

VALUE_TOL = 1e-12
PHAT_STEP = 1e-6

# Published N=6 randomized run (fixture table_n6_randomized): the score over
# its 1,361 analyzed trials and the certified bounds at alpha 0.05 and 0.001.
FIXTURE_TN = (1334, 1361)
FIXTURE_PHAT = {0.05: 0.327, 0.001: 0.413}
FIXTURE_PHAT_TOL = 1e-3


class CheckError(Exception):
    """An operation's output disagrees with the reference."""


@dataclass
class TrialLog:
    """A chainbell-log/1 file as header fields and one int64 array per column."""

    header: dict[str, str]
    trial_index: np.ndarray
    block_index: np.ndarray
    a_index: np.ndarray
    b_index: np.ndarray
    bright_a: np.ndarray
    bright_b: np.ndarray
    heralded: np.ndarray

    @property
    def N(self) -> int:
        return int(self.header["N"])


def read_log(path) -> TrialLog:
    data = Path(path).read_bytes()
    header: dict[str, str] = {}
    pos = 0
    while data.startswith(b"#", pos):
        nl = data.index(b"\n", pos)
        key, _, value = data[pos:nl].decode().lstrip("# ").partition(":")
        header[key.strip()] = value.strip()
        pos = nl + 1
    if header.get("format") != "chainbell-log/1":
        raise CheckError(f"{path}: not a chainbell-log/1 file")
    body = data[pos:].translate(bytes.maketrans(b"BD,", b"10 "))
    rows = np.loadtxt(io.BytesIO(body), dtype=np.int64, ndmin=2)
    if len(rows) != int(header["trials"]):
        raise CheckError(f"{path}: header declares {header['trials']} trials, body has {len(rows)}")
    return TrialLog(header, *(rows[:, i] for i in range(7)))


def chain_pairs(N: int) -> list[tuple[int, int]]:
    """Setting pairs in chain order; the last is the closing pair (a_N, b_1)."""
    return [(k, l) for k in range(1, N + 1) for l in (k, k % N + 1)]


def scores(log: TrialLog) -> np.ndarray:
    """Per-trial score T: 1 on a mismatch, except 1 on a match on the closing pair."""
    match = log.bright_a == log.bright_b
    closing = (log.a_index == log.N) & (log.b_index == 1)
    t = np.where(closing, match, ~match)
    if log.header.get("mode", "correlation") == "anticorrelation":
        t = ~t
    return t.astype(np.int64)


def expected_estimate(log: TrialLog) -> dict:
    """I_N, its stderr and per-pair count/mean/stderr over heralded trials."""
    h = log.heralded == 1
    same = log.bright_a == log.bright_b
    if log.header.get("mode", "correlation") == "anticorrelation":
        same = ~same
    pairs = chain_pairs(log.N)
    value = var = 0.0
    per_pair = []
    for k, l in pairs:
        sel = h & (log.a_index == k) & (log.b_index == l)
        count = int(sel.sum())
        mean = int(same[sel].sum()) / count
        stderr = math.sqrt(mean * (1.0 - mean) / (count - 1))
        value += (1.0 - mean) if (k, l) == pairs[-1] else mean
        var += stderr**2
        per_pair.append({"a_index": k, "b_index": l, "count": count, "mean": mean, "stderr": stderr})
    return {"value": value, "stderr": math.sqrt(var), "n_trials": int(h.sum()), "per_pair": per_pair}


def expected_score(log: TrialLog) -> tuple[int, int]:
    """(t, n) over the heralded pre-registered trial of each block."""
    size, analyzed = int(log.header["block_size"]), int(log.header["analyzed_index"])
    sel = (log.heralded == 1) & (log.trial_index == log.block_index * size + analyzed - 1)
    return int(scores(log)[sel].sum()), int(sel.sum())


def tail(t: int, n: int, N: int, x: float) -> float:
    """P(Bin(n, (2N - x)/2N) >= t)."""
    return float(binom.sf(t - 1, n, (2 * N - x) / (2 * N)))


def check_bounds(report: dict, alphas: list[float]) -> None:
    """Each p_hat is the largest x (to PHAT_STEP) whose tail at t reaches alpha."""
    got = [b["alpha"] for b in report["bounds"]]
    if got != alphas:
        raise CheckError(f"certify reported alphas {got}, asked for {alphas}")
    t, n, N = report["t"], report["n"], report["N"]
    for b in report["bounds"]:
        alpha, p_hat = b["alpha"], b["p_hat"]
        if not 0.0 <= p_hat <= 1.0 or tail(t, n, N, p_hat) < alpha:
            raise CheckError(f"p_hat {p_hat} at alpha {alpha} is not covered by the tail")
        if p_hat < 1.0 and tail(t, n, N, min(1.0, p_hat + PHAT_STEP)) >= alpha:
            raise CheckError(f"p_hat {p_hat} at alpha {alpha} is not the largest covered value")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_TOL


class Checker:
    """Checks one run's outputs; each log is parsed once and must not change."""

    def __init__(self) -> None:
        self._logs: dict[str, tuple[str, TrialLog]] = {}

    def log(self, path) -> TrialLog:
        """The parsed log; raises if its bytes differ from the first time it was seen."""
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        key = str(path)
        if key not in self._logs:
            self._logs[key] = (digest, read_log(path))
        elif self._logs[key][0] != digest:
            raise CheckError(f"{path}: log bytes differ from an earlier run of the same config")
        return self._logs[key][1]

    def estimate(self, log_path, report_path) -> None:
        want = expected_estimate(self.log(log_path))
        got = json.loads(Path(report_path).read_text())
        if got["n_trials"] != want["n_trials"] or len(got["per_pair"]) != len(want["per_pair"]):
            raise CheckError(f"estimate used {got['n_trials']} trials, expected {want['n_trials']}")
        for g, w in zip(got["per_pair"], want["per_pair"]):
            if (g["a_index"], g["b_index"], g["count"]) != (w["a_index"], w["b_index"], w["count"]):
                raise CheckError(f"estimate pair {g['a_index']},{g['b_index']}: counts differ")
            if not (_close(g["mean"], w["mean"]) and _close(g["stderr"], w["stderr"])):
                raise CheckError(f"estimate pair {g['a_index']},{g['b_index']}: mean or stderr differs")
        if not (_close(got["value"], want["value"]) and _close(got["stderr"], want["stderr"])):
            raise CheckError(f"estimate I_N {got['value']} differs from reference {want['value']}")

    def certify(self, log_path, report_path, alphas: list[float]) -> None:
        log = self.log(log_path)
        report = json.loads(Path(report_path).read_text())
        if (report["t"], report["n"], report["N"]) != (*expected_score(log), log.N):
            raise CheckError(
                f"certify scored (t, n) = ({report['t']}, {report['n']}), "
                f"reference {expected_score(log)}"
            )
        check_bounds(report, alphas)

    def fixture(self, report_path) -> None:
        report = json.loads(Path(report_path).read_text())
        if (report["t"], report["n"]) != FIXTURE_TN:
            raise CheckError(f"fixture scored ({report['t']}, {report['n']}), published {FIXTURE_TN}")
        check_bounds(report, list(FIXTURE_PHAT))
        for b in report["bounds"]:
            if abs(b["p_hat"] - FIXTURE_PHAT[b["alpha"]]) > FIXTURE_PHAT_TOL:
                raise CheckError(f"fixture p_hat {b['p_hat']} at alpha {b['alpha']} is not the published value")

    def sweep(self, tsv_path, n_min: int, n_max: int, trials: int) -> None:
        lines = Path(tsv_path).read_text().splitlines()
        if lines[0] != "N\tideal_chain_value\tsimulated_estimate\teta_min":
            raise CheckError(f"sweep header is {lines[0]!r}")
        rows = [line.split("\t") for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(range(n_min, n_max + 1)):
            raise CheckError("sweep rows do not cover the requested N")
        for N, ideal, simulated, eta in ((int(r[0]), *map(float, r[1:])) for r in rows):
            s = math.sin(math.pi / (4 * N)) ** 2
            if abs(ideal - 2 * N * s) > 1e-6:
                raise CheckError(f"sweep N={N}: ideal {ideal} differs from 2N sin^2(pi/4N)")
            eta_min = 2.0 / ((N / (N - 1)) * math.cos(math.pi / (2 * N)) + 1.0)
            if abs(eta - eta_min) > 1e-6:
                raise CheckError(f"sweep N={N}: eta_min {eta} differs from its formula")
            # Each of the 2N terms is a frequency with probability s over ~trials/2N trials.
            sigma = 2 * N * math.sqrt(s * (1 - s) / trials)
            if abs(simulated - 2 * N * s) > 5 * sigma:
                raise CheckError(f"sweep N={N}: simulated {simulated} is over 5 sigma from ideal")

    def coverage(self, stdout: str) -> None:
        report = json.loads(stdout)
        floor = (1 - report["alpha"]) - 3 * math.sqrt(report["alpha"] * (1 - report["alpha"]) / report["runs"])
        for r in report["results"]:
            if r["coverage"] < floor:
                raise CheckError(f"{r['schedule']} coverage {r['coverage']} below {floor:.4f}")
