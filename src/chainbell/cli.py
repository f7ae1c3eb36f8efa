"""Command-line surface: simulate, estimate, certify, fidelity, sweep, fixtures.

Exit codes: 0 success, 1 usage error, 2 data error.  Human-readable reports
go to stdout; ``--json PATH`` writes the same report as structured JSON.

The simulate config is a JSON file; every field has a default matching the
published experiment:

    {
      "N": 6,
      "mode": "correlation",
      "seed": 0,
      "source": {"type": "quantum", "state": "phi_plus",
                 "noise": {"detection_flip_a": 0.0, "detection_flip_b": 0.0,
                           "state_fidelity_mix": 0.0}},
      "protocol": {"blocks": 1398, "block_size": 100, "analyzed_index": 50},
      "herald": {"g": 8, "h_thres": 20, "bright_mean": 30, "dark_mean": 2},
      "collisions": {"event_rate": 0.0, "recovery": "permanent", "duration": 50},
      "detection": {"model": "ideal", "threshold": 6,
                    "bright_mean": 30, "dark_mean": 2}
    }

A mixture source instead reads
    {"type": "mixture", "schedule": {"type": "constant", "q": 0.5},
     "local": "uniform"}                       # or "minimal"
with schedule types constant/ramp/outcome_reactive/block_periodic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .chain import (
    ChainParams,
    chain_estimate_from_stats,
    chsh_parameter,
    min_detection_efficiency,
    pair_stats_from_log,
    t_statistic,
)
from .certify import local_content_bound
from .logfile import LogFormatError, LogHeader, read_log, write_log
from .mixtures import MixtureModel, minimal_local, uniform_local
from .quantum import NoiseSpec, ideal_chain_value, phi_minus, phi_plus, self_test_fidelity
from .simulate import (
    CollisionSpec,
    DetectionSpec,
    HeraldSpec,
    MixtureSource,
    ProtocolSpec,
    QuantumSource,
    adversary_schedules,
    extract_analysis_trials,
    run_protocol,
)
from . import fixtures

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# Lowest local-content upper bound attainable from a perfect CHSH (N=2) test.
CHSH_FLOOR = ideal_chain_value(2)


class ConfigError(ValueError):
    """Invalid simulate config; message names the offending field."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the CLI reserves 2 for data errors
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _take(cfg: dict, field: str, default):
    value = cfg.get(field, default)
    if type(default) in (int, float) and not isinstance(value, (int, float)):
        raise ConfigError(f"field {field!r} must be a number, got {value!r}")
    return value


def _spec(name: str, build, cfg: dict, **defaults):
    """build(**fields): each field read from cfg or defaulted, ints cast to int."""
    try:
        return build(**{
            f: int(_take(cfg, f, d)) if isinstance(d, int) else _take(cfg, f, d)
            for f, d in defaults.items()
        })
    except ValueError as exc:
        raise ConfigError(f"field {name!r}: {exc}")


def _choice(cfg: dict, field: str, default, options: dict, name: str):
    value = cfg.get(field, default)
    if not isinstance(value, str) or value not in options:
        raise ConfigError(f"field {name!r} has unknown value {value!r}")
    return options[value]


def _build_source(cfg: dict, params: ChainParams):
    kind = cfg.get("type", "quantum")
    if kind == "quantum":
        states = {"phi_plus": phi_plus, "phi_minus": phi_minus}
        state = _choice(cfg, "state", "phi_plus", states, "source.state")
        noise = _spec("source.noise", NoiseSpec, cfg.get("noise", {}), detection_flip_a=0.0,
                      detection_flip_b=0.0, state_fidelity_mix=0.0)
        return QuantumSource(state(), noise)
    if kind == "mixture":
        scfg = cfg.get("schedule", {"type": "constant", "q": 1.0})
        build = _choice(scfg, "type", None, adversary_schedules(), "source.schedule.type")
        defaults = {f.name: f.default for f in dataclasses.fields(build)}
        schedule = _spec("source.schedule", build, scfg, **defaults)
        locals_ = {"uniform": uniform_local, "minimal": minimal_local}
        local = _choice(cfg, "local", "uniform", locals_, "source.local")
        return MixtureSource(MixtureModel(params, schedule, local(params.N)))
    raise ConfigError(f"field 'source.type' has unknown value {kind!r}")


def load_config(path: str | Path):
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    params = _spec("N", ChainParams, cfg, N=6)
    modes = {"correlation": "correlation", "anticorrelation": "anticorrelation"}
    mode = _choice(cfg, "mode", "correlation", modes, "mode")
    protocol = _spec("protocol", ProtocolSpec, cfg.get("protocol", {}),
                     blocks=1398, block_size=100, analyzed_index=50)
    herald = _spec("herald", HeraldSpec, cfg.get("herald", {}),
                   g=8, h_thres=20, bright_mean=30.0, dark_mean=2.0)
    collisions = _spec("collisions", CollisionSpec, cfg.get("collisions", {}),
                       event_rate=0.0, recovery="permanent", duration=50)
    detection = _spec("detection", DetectionSpec, cfg.get("detection", {}),
                      model="ideal", threshold=6, bright_mean=30.0, dark_mean=2.0)
    seed = int(_take(cfg, "seed", 0))
    source = _build_source(cfg.get("source", {}), params)
    return params, mode, source, protocol, herald, collisions, detection, seed


def _emit(report: dict, text: str, json_path: str | None) -> None:
    print(text)
    if json_path:
        Path(json_path).write_text(json.dumps(report, indent=2) + "\n")


def cmd_simulate(args) -> int:
    try:
        params, mode, source, protocol, herald, collisions, detection, seed = load_config(
            args.config
        )
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_DATA
    records = run_protocol(
        source, params, protocol, herald, collisions, detection, seed=seed
    )
    header = LogHeader(
        N=params.N,
        mode=mode,
        blocks=protocol.blocks,
        block_size=protocol.block_size,
        analyzed_index=protocol.analyzed_index,
        seed=seed,
    )
    write_log(args.out, header, records)
    print(f"wrote {len(records)} trials ({records.heralded.sum()} heralded) to {args.out}")
    return EXIT_OK


def _load_estimation_input(args):
    """(params, mode, stats, heralding_applied, label) from a log or fixture."""
    if args.fixture:
        loaders = {
            "table_n3_phi_minus": fixtures.pair_stats_n3,
            "table_n8_phi_plus": fixtures.pair_stats_n8,
            "table_n6_randomized": lambda: fixtures.pair_stats_n6(getattr(args, "which", "all")),
        }
        if args.fixture not in loaders:
            raise LogFormatError(f"fixture {args.fixture!r} is not a trial table")
        return (*loaders[args.fixture](), False, f"fixture {args.fixture}")
    header, records = read_log(args.log)
    params = ChainParams(header.N)
    include = getattr(args, "include_unheralded", False)
    stats = pair_stats_from_log(records, params, header.mode, include)
    return params, header.mode, stats, not include, args.log


def cmd_estimate(args) -> int:
    try:
        params, mode, stats, herald_filter, label = _load_estimation_input(args)
        est = chain_estimate_from_stats(stats, params, mode) if stats else None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if est is None:
        print("no data: log contains no usable trials")
        return EXIT_OK
    lines = [
        f"input: {label}",
        f"N = {params.N}  mode = {mode}  trials = {est.n_trials}",
        f"heralding filter applied: {'yes' if herald_filter else 'no'}",
        "pair      count   mean     stderr",
    ]
    per_pair_json = []
    for (k, l), st in est.per_pair.items():
        lines.append(f"a{k:<2} b{l:<2}  {st.count:6d}  {st.mean:.5f}  {st.stderr:.5f}")
        per_pair_json.append(
            {"a_index": k, "b_index": l, "count": st.count, "mean": st.mean, "stderr": st.stderr}
        )
    lines.append(f"chained Bell parameter: {est.value:.4f} +/- {est.stderr:.4f}")
    report = {
        "report": "chainbell-estimate/1",
        "version": __version__,
        "input": label,
        "N": params.N,
        "mode": mode,
        "heralding_filter": herald_filter,
        "n_trials": est.n_trials,
        "value": est.value,
        "stderr": est.stderr,
        "per_pair": per_pair_json,
    }
    if params.N == 2:
        b, berr = chsh_parameter(est)
        lines.append(f"CHSH parameter B = {b:.4f} +/- {berr:.4f} (local bound 2)")
        report["b_chsh"] = b
        report["b_chsh_stderr"] = berr
    _emit(report, "\n".join(lines), args.json)
    return EXIT_OK


def cmd_certify(args) -> int:
    alphas = args.alpha or [0.05]
    if not all(0.0 < alpha < 1.0 for alpha in alphas):
        print(f"error: every alpha must be in (0, 1), got {alphas}", file=sys.stderr)
        return EXIT_USAGE
    if args.fixture:
        if args.fixture != "table_n6_randomized":
            print(
                "error: only the randomized-settings fixture supports certification",
                file=sys.stderr,
            )
            return EXIT_DATA
        t, n = fixtures.t_statistic_n6_50th()
        N = 6
        label = f"fixture {args.fixture}"
    else:
        try:
            header, records = read_log(args.log)
            if header.blocks <= 0:
                raise LogFormatError(
                    "log has no randomized-block metadata; certification "
                    "requires the randomized protocol"
                )
            protocol = ProtocolSpec(header.blocks, header.block_size, header.analyzed_index)
            selection = extract_analysis_trials(records, protocol)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        t = int(t_statistic(selection.trials, ChainParams(header.N), header.mode).sum())
        n, N, label = selection.n, header.N, args.log
    lines = [
        f"input: {label}",
        f"analyzed trials n = {n}, score sum t = {t}, N = {N}",
    ]
    bounds = []
    for alpha in alphas:
        bound = local_content_bound(t, n, N, alpha)
        lines.append(
            f"alpha = {alpha:<6g} -> minimum local fraction <= {bound.p_hat:.4f} "
            f"({100 * (1 - alpha):g} % confidence)"
        )
        bounds.append({"alpha": alpha, "p_hat": bound.p_hat})
    lines.append(
        f"for comparison: a perfect CHSH (N=2) test cannot certify below {CHSH_FLOOR:.3f}"
    )
    report = {
        "report": "chainbell-certify/1",
        "version": __version__,
        "input": label,
        "N": N,
        "t": t,
        "n": n,
        "bounds": bounds,
        "chsh_floor": CHSH_FLOOR,
    }
    _emit(report, "\n".join(lines), args.json)
    return EXIT_OK


def cmd_fidelity(args) -> int:
    if args.stderr < 0:
        print("error: stderr must be nonnegative", file=sys.stderr)
        return EXIT_DATA
    f50 = self_test_fidelity(args.b_chsh, args.stderr, 0.50)
    f95 = self_test_fidelity(args.b_chsh, args.stderr, 0.95)
    text = (
        f"B_CHSH = {args.b_chsh} +/- {args.stderr}\n"
        f"self-tested Bell-state fidelity lower bound:\n"
        f"  50 % confidence: {f50:.3f}\n"
        f"  95 % confidence: {f95:.3f}"
    )
    report = {
        "report": "chainbell-fidelity/1",
        "version": __version__,
        "b_chsh": args.b_chsh,
        "stderr": args.stderr,
        "fidelity_50": f50,
        "fidelity_95": f95,
    }
    _emit(report, text, args.json)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.n_min < 2:
        print("error: N must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.trials < 0:
        print("error: --trials must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for N in range(args.n_min, args.n_max + 1):
        params = ChainParams(N)
        ideal = ideal_chain_value(N)
        eta = min_detection_efficiency(N)
        if args.trials > 0:
            source = QuantumSource(phi_plus())
            protocol = ProtocolSpec(blocks=args.trials, block_size=1, analyzed_index=1)
            log = run_protocol(source, params, protocol, seed=args.seed + N)
            est = chain_estimate_from_stats(
                pair_stats_from_log(log, params), params
            )
            simulated = f"{est.value:.6f}"
        else:
            simulated = "-"
        rows.append((N, ideal, simulated, eta))
    with open(args.out, "w") as fh:
        fh.write("N\tideal_chain_value\tsimulated_estimate\teta_min\n")
        for N, ideal, simulated, eta in rows:
            fh.write(f"{N}\t{ideal:.6f}\t{simulated}\t{eta:.6f}\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    for entry in fixtures.list_tables():
        print(f"{entry['name']}: {entry['citation']}")
        print(f"    {entry['description']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chainbell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a trial log from a config file")
    p.add_argument("config", help="JSON config file")
    p.add_argument("out", help="output log path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="chained Bell parameter from a log or fixture")
    p.add_argument("log", nargs="?", help="trial log path")
    p.add_argument("--fixture", help="bundled table name instead of a log")
    p.add_argument("--which", choices=["all", "50th"], default="all",
                   help="columns of the randomized fixture to use")
    p.add_argument("--include-unheralded", action="store_true")
    p.add_argument("--json", help="also write a JSON report here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("certify", help="memory-robust bound on the minimum local fraction")
    p.add_argument("log", nargs="?", help="trial log path (randomized protocol)")
    p.add_argument("--fixture", help="bundled table name instead of a log")
    p.add_argument("--alpha", type=float, action="append",
                   help="significance level (repeatable; default 0.05)")
    p.add_argument("--json", help="also write a JSON report here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("fidelity", help="self-tested fidelity bounds from a CHSH value")
    p.add_argument("b_chsh", type=float)
    p.add_argument("stderr", type=float)
    p.add_argument("--json", help="also write a JSON report here")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("sweep", help="ideal/simulated chain values and efficiency thresholds")
    p.add_argument("out", help="output TSV path")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=15)
    p.add_argument("--trials", type=int, default=0,
                   help="simulated trials per N (0 skips simulation)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fixtures", help="list the bundled data tables")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("estimate", "certify") and bool(args.log) == bool(args.fixture):
        parser.error(f"{args.command} needs exactly one of a log path or --fixture")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
