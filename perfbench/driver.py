"""Run one chainbell operation in this interpreter, optionally tracing layer spans.

    python3 driver.py [--peak-rss FILE] [--trace SPANS.npz] cli ARG...   # chainbell.cli.main([ARG...])
    python3 driver.py [--peak-rss FILE] [--trace SPANS.npz] coverage SPEC.json

With ``--trace``, every function in TARGETS is wrapped in a span before the
operation starts, at its definition and at every chainbell module attribute
that re-binds it (such as ``chainbell.cli.read_log``); the spans are written
to SPANS.npz when the operation ends.  The coverage operation calls
``chainbell.certify.coverage_monte_carlo`` once per schedule in SPEC and
prints the coverages as JSON.  ``--peak-rss`` writes the process's peak
resident set size in kB when it ends, read from /proc/self/status: unlike
``ru_maxrss`` it excludes the forking parent's memory, which ``exec``
carries over.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys

from spans import Recorder


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _trials(args, kwargs, result):
    return {"trials": len(result), "heralded": sum(1 for r in result if r.heralded)}


def _selection(args, kwargs, result):
    return {"analyzed": result.n, "blocks": result.blocks}


# (span name, defining module, attribute, counter hook)
TARGETS = (
    ("cli.main", "chainbell.cli", "main", None),
    ("simulate.run_protocol", "chainbell.simulate", "run_protocol", _trials),
    ("simulate.extract_analysis_trials", "chainbell.simulate", "extract_analysis_trials", _selection),
    ("logfile.write_log", "chainbell.logfile", "write_log", _file_bytes),
    ("logfile.read_log", "chainbell.logfile", "read_log", _file_bytes),
    ("chain.pair_stats_from_log", "chainbell.chain", "pair_stats_from_log", None),
    ("chain.t_statistic", "chainbell.chain", "t_statistic", None),
    ("certify.local_content_bound", "chainbell.certify", "local_content_bound", None),
    ("certify.coverage_monte_carlo", "chainbell.certify", "coverage_monte_carlo", None),
    ("mixtures.probabilities", "chainbell.mixtures", "MixtureModel.probabilities", None),
    ("mixtures.schedule", "chainbell.mixtures", "ConstantSchedule.__call__", None),
    ("mixtures.schedule", "chainbell.mixtures", "RampSchedule.__call__", None),
    ("mixtures.schedule", "chainbell.mixtures", "OutcomeReactiveSchedule.__call__", None),
    ("mixtures.schedule", "chainbell.mixtures", "BlockPeriodicSchedule.__call__", None),
    ("quantum.joint_probabilities", "chainbell.quantum", "joint_probabilities", None),
    ("fixtures.load_table", "chainbell.fixtures", "load_table", None),
)
# Called too often inside one span to record each call: counted only.
COUNTED = (("certify.binomial_tail", "chainbell.certify", "binomial_tail"),)


def resolve(module: str, attr: str):
    """(sites, original): the function `module.attr` and every (owner, name) bound to it.

    A method is bound only on its class; a module function also wherever a
    loaded chainbell module imported it under some name.
    """
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, name)
    if path:
        return [(owner, name)], original
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "chainbell"]
    sites = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
    return sites, original


def install(recorder: Recorder) -> None:
    """Wrap every target at all of its bindings."""
    importlib.import_module("chainbell.cli")
    for span, module, attr, count in TARGETS:
        sites, original = resolve(module, attr)
        wrapped = recorder.span(span, original, count)
        for owner, key in sites:
            setattr(owner, key, wrapped)
    for name, module, attr in COUNTED:
        sites, original = resolve(module, attr)
        wrapped = recorder.counter(name, original)
        for owner, key in sites:
            setattr(owner, key, wrapped)


def coverage(spec_path: str) -> int:
    from chainbell import certify, mixtures

    with open(spec_path) as fh:
        spec = json.load(fh)
    local = getattr(mixtures, spec["local"])(spec["N"])
    results = []
    for schedule in spec["schedules"]:
        factory = functools.partial(getattr(mixtures, schedule["class"]), **schedule["args"])
        value = certify.coverage_monte_carlo(
            factory, spec["n"], spec["N"], spec["alpha"], spec["runs"], seed=spec["seed"], local=local
        )
        results.append({"schedule": schedule["class"], "coverage": value})
    print(json.dumps({"runs": spec["runs"], "alpha": spec["alpha"], "results": results}))
    return 0


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    flags = {}
    while argv[:1] in (["--trace"], ["--peak-rss"]):
        flags[argv[0]], argv = argv[1], argv[2:]
    trace, rss_file = flags.get("--trace"), flags.get("--peak-rss")
    kind, rest = argv[0], argv[1:]
    import chainbell.cli

    recorder = None
    if trace:
        recorder = Recorder()
        install(recorder)
    try:
        if kind == "cli":
            return chainbell.cli.main(rest)
        if kind == "coverage":
            return coverage(rest[0])
        raise SystemExit(f"unknown operation {kind!r}")
    finally:
        if recorder is not None:
            recorder.save(trace)
        if rss_file:
            with open(rss_file, "w") as fh:
                fh.write(f"{peak_rss_kb()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
