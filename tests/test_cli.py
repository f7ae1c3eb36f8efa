import hashlib
import json

import pytest

from chainbell.cli import main


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "N": 3,
        "seed": 21,
        "protocol": {"blocks": 60, "block_size": 4, "analyzed_index": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_writes_log(self, tmp_path, small_config, capsys):
        out = tmp_path / "run.log"
        assert run_cli("simulate", str(small_config), str(out)) == 0
        assert "wrote 240 trials" in capsys.readouterr().out
        assert out.exists()

    def test_byte_identical_reruns(self, tmp_path, small_config):
        out1, out2 = tmp_path / "a.log", tmp_path / "b.log"
        assert run_cli("simulate", str(small_config), str(out1)) == 0
        assert run_cli("simulate", str(small_config), str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_config_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"N": 1}))
        assert run_cli("simulate", str(cfg), str(tmp_path / "x.log")) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_unparsable_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run_cli("simulate", str(cfg), str(tmp_path / "x.log")) == 2

    def test_mixture_source_config(self, tmp_path, capsys):
        cfg = tmp_path / "mix.json"
        cfg.write_text(json.dumps({
            "N": 4,
            "seed": 5,
            "protocol": {"blocks": 30, "block_size": 2, "analyzed_index": 1},
            "source": {"type": "mixture",
                       "schedule": {"type": "constant", "q": 0.5},
                       "local": "minimal"},
        }))
        assert run_cli("simulate", str(cfg), str(tmp_path / "mix.log")) == 0


class TestEstimate:
    def test_from_log(self, tmp_path, small_config, capsys):
        out = tmp_path / "run.log"
        run_cli("simulate", str(small_config), str(out))
        capsys.readouterr()
        assert run_cli("estimate", str(out)) == 0
        assert "chained Bell parameter" in capsys.readouterr().out

    def test_from_fixture_with_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = run_cli(
            "estimate", "--fixture", "table_n6_randomized", "--json", str(report)
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["N"] == 6
        assert data["value"] == pytest.approx(0.3147, abs=1e-3)

    def test_n3_fixture_value(self, capsys):
        assert run_cli("estimate", "--fixture", "table_n3_phi_minus") == 0
        out = capsys.readouterr().out
        assert "0.4748" in out

    def test_chsh_line_for_n2_logs(self, tmp_path, capsys):
        cfg = tmp_path / "n2.json"
        cfg.write_text(json.dumps({
            "N": 2, "seed": 1,
            "protocol": {"blocks": 200, "block_size": 1, "analyzed_index": 1},
        }))
        log = tmp_path / "n2.log"
        run_cli("simulate", str(cfg), str(log))
        capsys.readouterr()
        assert run_cli("estimate", str(log)) == 0
        assert "CHSH parameter" in capsys.readouterr().out

    def test_requires_exactly_one_input(self, tmp_path):
        assert run_cli("estimate") == 1
        assert run_cli(
            "estimate", "some.log", "--fixture", "table_n3_phi_minus"
        ) == 1

    def test_missing_log_is_data_error(self):
        assert run_cli("estimate", "/nonexistent/run.log") == 2

    def test_non_table_fixture_is_data_error(self):
        assert run_cli("estimate", "--fixture", "table_chsh_experiments") == 2


class TestCertify:
    def test_fixture_golden_bounds(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = run_cli(
            "certify", "--fixture", "table_n6_randomized",
            "--alpha", "0.05", "--alpha", "0.01", "--alpha", "0.001",
            "--json", str(report),
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["t"] == 1334 and data["n"] == 1361
        got = {b["alpha"]: b["p_hat"] for b in data["bounds"]}
        assert got[0.05] == pytest.approx(0.327, abs=1e-3)
        assert got[0.01] == pytest.approx(0.366, abs=1e-3)
        assert got[0.001] == pytest.approx(0.413, abs=1e-3)
        assert "perfect CHSH" in capsys.readouterr().out

    def test_from_simulated_log(self, tmp_path, small_config, capsys):
        log = tmp_path / "run.log"
        run_cli("simulate", str(small_config), str(log))
        capsys.readouterr()
        assert run_cli("certify", str(log)) == 0
        assert "minimum local fraction" in capsys.readouterr().out

    def test_wrong_fixture_is_data_error(self):
        assert run_cli("certify", "--fixture", "table_n8_phi_plus") == 2

    def test_requires_exactly_one_input(self):
        assert run_cli("certify") == 1


class TestFidelity:
    def test_published_value(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run_cli("fidelity", "2.80", "0.02", "--json", str(report)) == 0
        data = json.loads(report.read_text())
        assert data["fidelity_50"] == pytest.approx(0.980, abs=1e-3)
        assert data["fidelity_95"] == pytest.approx(0.958, abs=1e-3)

    def test_negative_stderr_is_data_error(self):
        assert run_cli("fidelity", "2.5", "--", "-0.1") == 2

    def test_non_numeric_is_usage_error(self):
        assert run_cli("fidelity", "high", "0.1") == 1


class TestSweep:
    def test_analytic_only(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        assert run_cli("sweep", str(out), "--n-min", "2", "--n-max", "5") == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("N\t")
        assert len(lines) == 5
        n2 = lines[1].split("\t")
        assert float(n2[1]) == pytest.approx(0.585786, abs=1e-6)

    def test_with_simulation(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        assert run_cli(
            "sweep", str(out), "--n-min", "2", "--n-max", "3", "--trials", "500"
        ) == 0
        for line in out.read_text().splitlines()[1:]:
            assert line.split("\t")[2] != "-"

    def test_bad_range_is_usage_error(self, tmp_path):
        assert run_cli("sweep", str(tmp_path / "s.tsv"), "--n-min", "1") == 1


class TestFixturesCommand:
    def test_lists_all_tables(self, capsys):
        assert run_cli("fixtures") == 0
        out = capsys.readouterr().out
        for name in ("table_n3_phi_minus", "table_n8_phi_plus",
                     "table_n6_randomized", "table_chsh_experiments"):
            assert name in out


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run_cli() == 1

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate") == 1


def _simulate(tmp_path, cfg, name="run"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    log = tmp_path / f"{name}.log"
    assert run_cli("simulate", str(path), str(log)) == 0
    return log


def _edit_log(log, edit):
    """Rewrite a log's record lines with ``edit`` and fix its trials header."""
    lines = log.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    records = edit([line for line in lines if not line.startswith("#")])
    header = [f"# trials: {len(records)}" if h.startswith("# trials:") else h for h in header]
    log.write_text("\n".join(header + records) + "\n")


class TestPreRegisteredSelection:
    CFG = {"N": 3, "seed": 4, "protocol": {"blocks": 20, "block_size": 3, "analyzed_index": 2}}

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:1] + rows[2:],                      # trial 1 dropped
        lambda rows: rows[:1] + rows[1:2] * 2 + rows[3:],      # trial 1 twice, trial 2 gone
        lambda rows: [rows[0], rows[2], rows[1], *rows[3:]],   # trials 1 and 2 swapped
        lambda rows: rows + rows[-3:],                         # one block more than the header
    ])
    def test_misplaced_trials_are_data_errors(self, tmp_path, capsys, edit):
        log = _simulate(tmp_path, self.CFG)
        _edit_log(log, edit)
        capsys.readouterr()
        assert run_cli("certify", str(log)) == 2
        assert "error:" in capsys.readouterr().err

    def test_untouched_log_certifies(self, tmp_path):
        log = _simulate(tmp_path, self.CFG)
        _edit_log(log, lambda rows: rows)
        assert run_cli("certify", str(log)) == 0


class TestExitCodes:
    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1", "nan", "x"])
    def test_alpha_outside_unit_interval_is_usage_error(self, alpha, capsys):
        code = run_cli("certify", "--fixture", "table_n6_randomized", f"--alpha={alpha}")
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("N", "six"), ("N", "1"), ("trials", "many"), ("blocks", "2.5"), ("block_size", "x"),
    ])
    def test_bad_header_field_is_data_error(self, tmp_path, small_config, capsys, key, value):
        log = tmp_path / "run.log"
        run_cli("simulate", str(small_config), str(log))
        lines = log.read_text().splitlines()
        lines = [f"# {key}: {value}" if line.startswith(f"# {key}:") else line for line in lines]
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("estimate", str(log)) == 2
        assert run_cli("certify", str(log)) == 2
        assert key in capsys.readouterr().err

    def test_negative_sweep_trials_is_usage_error(self, tmp_path):
        out = tmp_path / "s.tsv"
        assert run_cli("sweep", str(out), "--n-max", "3", "--trials", "-5") == 1
        assert not out.exists()


class TestGoldenRuns:
    """Log bytes, I_N and (t, n) of two runs, pinned from the per-record implementation."""

    @pytest.mark.parametrize("cfg, digest, value, stderr, score", [
        ({"N": 6, "seed": 21, "protocol": {"blocks": 200, "block_size": 10, "analyzed_index": 4},
          "collisions": {"event_rate": 0.01, "recovery": "transient", "duration": 20},
          "detection": {"model": "counts", "threshold": 6, "bright_mean": 30, "dark_mean": 2}},
         "f7d1694fcc4f2035c78aa9c1a3ad24f8bff6bb59f84f6329dca0807b3d511c52", 1.0314, 0.0885, (141, 154)),
        ({"N": 6, "seed": 22,
          "source": {"type": "mixture", "local": "minimal",
                     "schedule": {"type": "outcome_reactive", "base": 0.5, "step": 0.1, "run_length": 3}},
          "protocol": {"blocks": 100, "block_size": 10, "analyzed_index": 5}},
         "7c84106088f0780f07b3bbc6104249c38b05772942c990888cd98c4b41171afa", 0.5778, 0.0524, (94, 100)),
    ])
    def test_simulate_estimate_certify(self, tmp_path, cfg, digest, value, stderr, score):
        log = _simulate(tmp_path, cfg)
        assert hashlib.sha256(log.read_bytes()).hexdigest() == digest
        assert run_cli("estimate", str(log), "--json", str(tmp_path / "e.json")) == 0
        est = json.loads((tmp_path / "e.json").read_text())
        assert (round(est["value"], 4), round(est["stderr"], 4)) == (value, stderr)
        assert run_cli("certify", str(log), "--json", str(tmp_path / "c.json")) == 0
        cert = json.loads((tmp_path / "c.json").read_text())
        assert (cert["t"], cert["n"]) == score
