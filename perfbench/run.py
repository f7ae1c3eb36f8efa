"""chainbell benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE [NEW]

Run it from the root of a checkout; the program is the checkout's src/.  A
run writes the workload's inputs for the seed under .bench_work/, times
`import chainbell.cli` in fresh interpreters, then runs passes of the
workload (workloads.py) for at most S seconds, checking every output
(refcheck.py).  With --trace 1 the passes alternate between untraced and
traced ones (driver.py, spans.py), and the per-layer metrics are reported
instead of the end-to-end ones.  Each run writes its full result, with
provenance, to .bench_work/results/, prints every metric with its unit,
and prints a JSON summary as its last line.

--compare prints the median and quartiles of every workload x metric in
one or two result sets (result files, or directories holding them) and
flags each pair whose medians differ by more than the metric's bound, or
whose spread is wider than the bound ("unresolved").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from importlib.metadata import version
from pathlib import Path

import spans
from refcheck import CheckError, Checker
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DRIVER = HERE / "driver.py"
SCHEMA = "chainbell-bench/1"
CATALOG = json.loads((HERE / "metrics.json").read_text())

# A single import sample spreads by about 30 % on a shared 2-core machine,
# and slow spells last seconds to minutes: setup_s is the median of batches
# of samples taken before the first pass and after every pass, so that the
# samples span the run.
SETUP_BATCH = 3
IMPORTTIME_SAMPLES = 5
OP_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_sha256() -> str:
    """Hash of the program's source tree, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "chainbell").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance(seed: int) -> dict:
    return {
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


def run_op(args: tuple[str, ...], work: Path) -> tuple[float, float, int, str, str]:
    """(wall s, peak RSS MB, exit code, stdout, stderr) of one driver process."""
    out, err, rss = work / "op.stdout", work / "op.stderr", work / "op.peak_rss"
    rss.unlink(missing_ok=True)
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(DRIVER), "--peak-rss", rss.name, *args],
                                cwd=work, env=child_env(), stdout=fo, stderr=fe)
        # A blocking wait times the exit exactly; a timed wait polls.
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    peak = int(rss.read_text()) / 1024 if rss.exists() else 0.0
    return wall, peak, code, out.read_text(), err.read_text()


def op_error(op, checker, code: int, stdout: str, stderr: str) -> str | None:
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"{op.name}: exit {code}: {last[0]}"
    if "Traceback (most recent call last)" in stderr:
        return f"{op.name}: traceback on stderr"
    try:
        op.check(checker, stdout)
    except (CheckError, OSError, ValueError, LookupError, TypeError) as exc:
        return f"{op.name}: {exc}"
    return None


def run_pass(workload, checker, work: Path, traced: bool, index: int) -> dict:
    ops, span_files = [], []
    for op in workload.ops:
        for name in op.outputs:
            (work / name).unlink(missing_ok=True)
        args = op.args
        if traced:
            span_files.append(work / f"spans-{index}-{op.name}.npz")
            args = ("--trace", span_files[-1].name, *args)
        wall, rss, code, stdout, stderr = run_op(args, work)
        error = op_error(op, checker, code, stdout, stderr)
        ops.append({"op": op.name, "wall_s": wall, "rss_mb": rss, "exit": code, "error": error})
    result = {"traced": traced, "wall_s": sum(o["wall_s"] for o in ops), "ops": ops}
    if traced:
        present = [f for f in span_files if f.exists()]
        result["layers"] = layer_values(*spans.summarize(present))
        for f in present:
            f.unlink()
    return result


def measure(workload, checker, work: Path, seconds: float, trace: bool) -> tuple[list[float], list[dict]]:
    """(setup samples, passes): closed-loop passes until another would take the
    time spent in passes past `seconds`, at least one of each kind."""
    setup: list[float] = []
    passes: list[dict] = []
    spent = 0.0
    while True:
        setup += [time_command(work, "-c", "import chainbell.cli") for _ in range(SETUP_BATCH)]
        if len(passes) >= (2 if trace else 1) and spent / len(passes) * (len(passes) + 1) > seconds:
            return setup, passes
        traced = trace and len(passes) % 2 == 1
        start = time.perf_counter()
        passes.append(run_pass(workload, checker, work, traced, len(passes)))
        spent += time.perf_counter() - start


def time_command(work: Path, *args: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=work, env=child_env(), check=True)
    return time.perf_counter() - start


def import_profile(work: Path) -> tuple[float, float]:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import chainbell.cli"],
                          cwd=work, env=child_env(), capture_output=True, text=True, check=True)
    return parse_importtime(proc.stderr)


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(seconds importing chainbell, seconds of that in scipy) from `-X importtime` output."""
    total = scipy = 0
    # Lines come children first, indented two spaces per level; read them
    # parents first, keeping the open ancestors and whether one is scipy.
    ancestors: list[tuple[int, bool]] = []
    for line in reversed(stderr.splitlines()):
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        cumulative, name = int(fields[1]), fields[2]
        level, package = (len(name) - len(name.lstrip())) // 2, name.strip().split(".")[0]
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        in_scipy = bool(ancestors) and ancestors[-1][1]
        if package == "chainbell" and not ancestors:
            total += cumulative
        if package == "scipy" and not in_scipy:
            scipy += cumulative
        ancestors.append((level, in_scipy or package == "scipy"))
    return total / 1e6, scipy / 1e6


def layer_values(spans: dict, counters) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except those of import and tracing."""

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    trials = counters["simulate.run_protocol.trials"]
    read_s = spans.get("logfile.read_log", {}).get("total_s", 0.0)
    protocol_s = spans.get("simulate.run_protocol", {}).get("total_s", 0.0)
    return {
        "simulate.run_protocol_s": own("simulate.run_protocol"),
        "simulate.us_per_trial": 1e6 * ratio(protocol_s, trials),
        "simulate.trials": trials,
        "simulate.heralded_frac": ratio(counters["simulate.run_protocol.heralded"], trials),
        "simulate.extract_analysis_trials_s": own("simulate.extract_analysis_trials"),
        "simulate.analyzed_frac": ratio(counters["simulate.extract_analysis_trials.analyzed"],
                                        counters["simulate.extract_analysis_trials.blocks"]),
        "logfile.write_log_s": own("logfile.write_log"),
        "logfile.read_log_s": own("logfile.read_log"),
        "logfile.bytes": counters["logfile.write_log.bytes"],
        "logfile.read_mb_per_s": ratio(counters["logfile.read_log.bytes"] / 1e6, read_s),
        "chain.pair_stats_from_log_s": own("chain.pair_stats_from_log"),
        "chain.t_statistic_calls": calls("chain.t_statistic"),
        "chain.t_statistic_s": own("chain.t_statistic"),
        "certify.local_content_bound_s": own("certify.local_content_bound"),
        "certify.local_content_bound_calls": calls("certify.local_content_bound"),
        "certify.binomial_tail_calls": counters["certify.binomial_tail.calls"],
        "certify.coverage_monte_carlo_s": own("certify.coverage_monte_carlo"),
        "mixtures.schedule_calls": calls("mixtures.schedule"),
        "mixtures.schedule_s": own("mixtures.schedule"),
        "mixtures.probabilities_calls": calls("mixtures.probabilities"),
        "mixtures.probabilities_s": own("mixtures.probabilities"),
        "quantum.joint_probabilities_calls": calls("quantum.joint_probabilities"),
        "quantum.joint_probabilities_s": own("quantum.joint_probabilities"),
        "fixtures.load_table_s": own("fixtures.load_table"),
    }


def end_to_end(workload, setup: list[float], passes: list[dict]) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    op_s = {op.name: statistics.median(o["wall_s"] for p in plain for o in p["ops"] if o["op"] == op.name)
            for op in workload.ops}
    ops = [o for p in passes for o in p["ops"]]
    # A pass's time is the sum of its operations' median times: a slow spell
    # of the machine then shifts it only if it covers most repeats of one op.
    pipeline = sum(op_s.values())
    return {
        "setup_s": statistics.median(setup),
        "pipeline_s": pipeline,
        "trials_per_s": workload.trials / pipeline,
        "peak_rss_mb": max(o["rss_mb"] for p in plain for o in p["ops"]),
        **{f"{name}_s": value for name, value in op_s.items()},
        "failed_ops_frac": sum(o["error"] is not None for o in ops) / len(ops),
    }


def per_layer(imports: list[tuple[float, float]], passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    metrics["cli.import_s"] = statistics.median(i[0] for i in imports)
    metrics["cli.import_scipy_s"] = statistics.median(i[1] for i in imports)
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in passes if not p["traced"]) - 1.0
    )
    return metrics


def unit(metric: str) -> str:
    return (CATALOG["end_to_end"].get(metric) or CATALOG["per_layer"][metric])["unit"]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prov = provenance(seed)
        workload = WORKLOADS[name](seed, work)
        prov["inputs"] = {f: sha256_file(work / f) for f in workload.inputs}
        imports = [import_profile(work) for _ in range(IMPORTTIME_SAMPLES)] if trace else []
        setup, passes = measure(workload, Checker(), work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = end_to_end(workload, setup, passes)
    if trace:
        metrics.update(per_layer(imports, passes))
    ops = [o for p in passes for o in p["ops"]]
    errors = sorted({o["error"] for o in ops if o["error"]})
    result = {
        "schema": SCHEMA, "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": prov,
        "correct": not errors, "attempted": len(ops), "failed": sum(o["error"] is not None for o in ops),
        "errors": errors,
        "metrics": {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()},
        "setup_samples_s": setup,
        "passes": [{k: p[k] for k in ("traced", "wall_s", "ops")} for p in passes],
    }
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"{name}  seed {seed}  trace {int(trace)}  passes {len(passes)}  "
          f"ops {result['attempted']} ({result['failed']} failed)  result {out.relative_to(ROOT)}")
    for error in errors:
        print(f"  FAILED {error}")
    for m, v in result["metrics"].items():
        print(f"  {m:<36} {v['value']:>14.6g} {v['unit']}")
    return result


def load_results(path: Path) -> list[dict]:
    results = []
    for f in [path] if path.is_file() else sorted(path.rglob("*.json")):
        try:
            r = json.loads(f.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            continue
        if isinstance(r, dict) and r.get("schema") == SCHEMA:
            results.append(r)
    return results


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _rel(x: float, ref: float) -> float:
    return x / ref if ref else (0.0 if x == 0 else math.inf)


def flag(metric: str, base: list[float], new: list[float]) -> str:
    spec = CATALOG["end_to_end"].get(metric)
    if spec is None:
        return ""
    sign = 1 if spec["better"] == "lower" else -1
    (a1, am, a3), (b1, bm, b3) = quartiles(base), quartiles(new)
    spread = max(_rel(a3 - a1, am), _rel(b3 - b1, bm))
    worse = sign * _rel(bm - am, am)
    all_better = max(new) < min(base) if sign > 0 else min(new) > max(base)
    if spread > spec["bound"]:
        return "better" if all_better else "unresolved"
    if worse > spec["bound"]:
        return "WORSE"
    return "better" if worse < -spec["bound"] else ""


def comparable(sets: list[list[dict]]) -> str | None:
    """Why two result sets must not be compared, or None."""
    seen: dict[tuple, tuple] = {}
    for s in sets:
        for r in s:
            key = (r["workload"], r["seed"])
            inputs = (r["provenance"]["inputs"], r["seconds"])
            if seen.setdefault(key, inputs) != inputs:
                return f"{r['workload']} seed {r['seed']}: inputs or run length differ between results"
    return None


def compare(paths: list[str]) -> int:
    sets = [load_results(Path(p)) for p in paths]
    for p, s in zip(paths, sets):
        if not s:
            print(f"no {SCHEMA} results in {p}", file=sys.stderr)
            return 2
    reason = comparable(sets)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    order = list(CATALOG["end_to_end"]) + list(CATALOG["per_layer"])
    for workload, trace in sorted({(r["workload"], r["trace"]) for s in sets for r in s}):
        groups = [[r for r in s if (r["workload"], r["trace"]) == (workload, trace)] for s in sets]
        print(f"{workload}  trace {trace}  runs {' vs '.join(str(len(g)) for g in groups)}")
        names = {m for g in groups for r in g for m in r["metrics"]}
        for m in (m for m in order if m in names):
            cols = [[r["metrics"][m]["value"] for r in g if m in r["metrics"]] for g in groups]
            line = f"  {m:<36} {unit(m):<6}"
            for values in cols:
                q1, med, q3 = quartiles(values) if values else (math.nan,) * 3
                line += f" {med:>12.6g} [{q1:.6g}, {q3:.6g}]"
            if len(cols) == 2 and all(cols):
                med_a, med_b = statistics.median(cols[0]), statistics.median(cols[1])
                line += f"  {100 * _rel(med_b - med_a, med_a):+7.2f} %  {flag(m, *cols)}"
            print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs="+", metavar="RESULTS")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two result sets")
        return compare(args.compare)
    if not args.workload:
        parser.error("one of --workload or --compare is required")
    if not (SRC / "chainbell" / "__init__.py").is_file():
        print(f"error: no chainbell source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    shown = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    for r in results:
        print(json.dumps({
            "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
            "metrics": {m["name"]: r["metrics"][m["name"]] for m in shown},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
