"""Command-line front-end tests.

Everything here drives ``levyq.cli.main`` in-process and checks the three
things the CLI owns: argument handling, files written where asked, and the
documented exit-code contract (0 success / 2 input error / 3 numerical
failure).  Two tests run the ``levyq`` console script in a fresh process:
one runs the wrapper an installer would generate from the
``[project.scripts]`` entry in ``pyproject.toml``, so it needs no
installation; the other runs ``levyq`` from PATH and is skipped where the
package is not installed.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levyq
import levyq.cli as cli
import levyq.harness
import levyq.options
from levyq.errors import NumericalError
from levyq.harness import ExperimentConfig, parse_config_text, run_mc_table
from levyq.options import (generate_synthetic_chain, read_chain_csv,
                           write_chain_csv)

MC_CFG = ("n = 32\n"
          "taus = 1.0\n"
          "spectral_points = 1024\n"
          "replications = 1\n"
          "seed = 11\n")

# CGMY increments without diffusion, drawn through the closed-form cf
CGMY_ICDF = ("kind = cgmy\nsigma = 0\n"
             "method = inverse-cdf-from-characteristic-function\n")

DEMO_CFG = ("kind = compound-poisson-exp\n"
            "intensity = 1.0\n"
            "jump_rate = 1.0\n"
            "sigma = 0.0\n"
            "gamma = 0.0\n"
            "increment_delta = 0.5\n"
            "h = 0.05\n"
            "method = exact-compound-poisson\n"
            "spectral_points = 512\n"
            "taus = 0.5\n"
            "seed = 2\n"
            "n = 400\n")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The launcher pip writes for a ``module:attr`` console-script entry.
_WRAPPER = """\
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {attr}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({attr}())
"""


@pytest.fixture()
def mc_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MC_CFG)
    return path


def assert_input_error(code, capsys):
    """A file the command cannot read or write is an input error: exit 2
    with an `error:` line and no traceback."""
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def _child_env():
    """The environment of a child Python that imports the very copy of
    levyq this process imported.  The suite's PYTHONPATH is relative to
    where pytest started, so its entries are made absolute."""
    inherited = os.environ.get("PYTHONPATH", "")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(levyq.__file__).resolve().parents[1])]
        + [os.path.abspath(p) for p in inherited.split(os.pathsep) if p]))


def _run_demo(command, tmp_path, env=None):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(DEMO_CFG)
    out = tmp_path / "report.json"
    proc = subprocess.run(command + ["demo-direct", "--config", str(cfg),
                                     "--out", str(out)],
                          capture_output=True, text=True, timeout=120,
                          cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


class TestMcTableCommand:
    def test_writes_table_and_reports(self, mc_config_file, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = cli.main(["mc-table", "--config", str(mc_config_file),
                         "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("tau,q_minus,q_plus,rmse_oracle_minus,")
        assert len(text.strip().split("\n")) == 2
        assert "wrote" in capsys.readouterr().out

    def test_summary_names_the_rule_count(self, tmp_path, capsys):
        cfg = tmp_path / "rule.cfg"
        cfg.write_text(MC_CFG.replace("spectral_points = 1024\n", ""))
        code = cli.main(["mc-table", "--config", str(cfg),
                         "--out", str(tmp_path / "t.csv")])
        table = run_mc_table(parse_config_text(cfg.read_text()))
        assert code == 0
        assert (f"0 failures, {table.grid.points} spectral points)"
                in capsys.readouterr().out)

    def test_nonfinite_prices_are_a_numerical_failure(self, tmp_path,
                                                      capsys):
        # far-out strikes overflowed the pricing reference (exit 3, every
        # replication excluded); they lie past the pricing grid's domain
        # |x| < 128.67, so option pricing now refuses the leftmost, exit 2
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(MC_CFG + "strike_variance = 1e6\n")
        out = tmp_path / "t.csv"
        code = cli.main(["mc-table", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: x = -1876.36 lies outside the pricing "
                              "grid's domain")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_oracle_mode_with_per_replication_screen(self, tmp_path, capsys):
        # the screen passes at a different j_min in each replication; this
        # config once escaped the exit-code contract with a raw ValueError
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("noise_fraction = 0.0012\n"
                       "replications = 10\n")
        out = tmp_path / "table.csv"
        code = cli.main(["mc-table", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert "0 failures" in capsys.readouterr().out
        rows = [line.split(",") for line in out.read_text().split()[1:]]
        assert len(rows) == len(ExperimentConfig().taus)
        for row in rows:
            assert row[3] and row[5]            # oracle cells filled

    @pytest.mark.parametrize("target, summary, code", [
        ("adaptive_quantile", "0 of 4 replication cells clean, 4 failures",
         3),
        ("spectra", "2 of 4 replication cells clean, 2 failures", 0),
    ], ids=["every-cell-fails", "first-replication-fails"])
    def test_summary_counts_failed_cells(self, tmp_path, capsys, monkeypatch,
                                         target, summary, code):
        # 2 replications x 1 tau x 2 sides = 4 cells; a failed selector
        # excludes its whole chain, as a failed spectra table does, with
        # one line per replication.  The replications' tables are made together
        # and, when that fails, one by one; here only the first
        # replication's table fails.  A run with no clean cell writes no
        # table and exits 3, with the summary on the numerical failure line
        if target == "adaptive_quantile":
            def fail(*args):
                raise NumericalError("synthetic failure")

            monkeypatch.setattr(levyq.harness, target, fail)
        else:
            original = levyq.options._ChainDesign.spectra
            first = []

            def fail_first_chain(design, prices):
                first[:] = first or prices[:1]
                if any(p is first[0] for p in prices):
                    raise NumericalError("synthetic failure")
                return original(design, prices)

            monkeypatch.setattr(levyq.options._ChainDesign, "spectra",
                                fail_first_chain)
        cfg = tmp_path / "two.cfg"
        cfg.write_text(MC_CFG.replace("replications = 1", "replications = 2"))
        out = tmp_path / "table.csv"
        got = cli.main(["mc-table", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert got == code
        assert summary in (captured.err if code else captured.out)
        assert captured.err.count("excluded:") == (
            2 if target == "adaptive_quantile" else 1)
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("command", ["estimate-chain"])
    def test_maturity_too_small_is_a_numerical_failure(self, tmp_path,
                                                       capsys, command):
        # at T = 1e-300 psi~' = O(1/T) cannot be squared: the curvature
        # refuses the maturity at the overflow (it printed two
        # RuntimeWarnings, and later exited 3), exit 2
        cfg = tmp_path / "t.cfg"
        cfg.write_text(MC_CFG + "T = 1e-300\n")
        out = tmp_path / "out"
        code = cli.main([command, "--chain", str(chain_file(tmp_path, 32)),
                         "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "T = 1e-300" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not out.exists()

    def test_maturity_too_small_design_is_refused(self, tmp_path, capsys):
        # at T = 1e-300 every exact quote of the strike design is pricing
        # dust (the largest 5.6e-17), so mc-table refuses the design with
        # exit 2 before its curvature fails (it exited 3 with every cell
        # excluded, and earlier wrote a table of empty cells and exited 0)
        cfg = tmp_path / "t.cfg"
        cfg.write_text(MC_CFG.replace("replications = 1", "replications = 3")
                       + "T = 1e-300\n")
        out = tmp_path / "out"
        code = cli.main(["mc-table", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "carry no signal" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["x_max = 0.4", "spectral_points = 16"])
    def test_config_no_replication_can_run(self, tmp_path, capsys, line):
        # no tail nodes below x_max = 0.5, and a master window [-32, 32] on
        # 16 points aliases the tail nodes: every replication would fail
        # with the same message, so the run is refused before the first
        cfg = tmp_path / "cannot.cfg"
        key = line.split(" = ")[0]
        cfg.write_text("".join(row + "\n" for row in MC_CFG.splitlines()
                               if not row.startswith(key)) + line + "\n")
        out = tmp_path / "t.csv"
        code = cli.main(["mc-table", "--config", str(cfg), "--out", str(out)])
        assert_input_error(code, capsys)
        assert not out.exists()

    def test_mode_key_is_unknown(self, mc_config_file, tmp_path, capsys):
        # every run fills all four RMSE columns; the key that chose a
        # subset is gone
        mc_config_file.write_text(MC_CFG + "mode = oracle\n")
        code = cli.main(["mc-table", "--config", str(mc_config_file),
                         "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown key 'mode'" in err

    def test_oversized_bandwidth_grid_is_refused(self, tmp_path, capsys):
        # about 1.1e7 bandwidths at n = 32: refused before any replication
        cfg = tmp_path / "fine.cfg"
        cfg.write_text(MC_CFG + "L = 1.0000001\n")
        out = tmp_path / "t.csv"
        code = cli.main(["mc-table", "--config", str(cfg), "--out", str(out)])
        assert_input_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("rate, message", [
        ("1.0", "exponential moment of the jump measure does not exist"),
        ("2.0", "exceeds the jump mass on side '-'"),
    ], ids=["no-exponential-moment", "no-minus-tail"])
    def test_compound_poisson_chain_is_an_input_error(self, tmp_path, capsys,
                                                      rate, message):
        # at rate 1 no martingale drift exists; at rate 2 there are no
        # negative jumps, so the '-' column has no truth to compare against
        cfg = tmp_path / "cp.cfg"
        cfg.write_text(MC_CFG + "kind = compound-poisson-exp\n"
                       f"jump_rate = {rate}\n")
        out = tmp_path / "t.csv"
        code = cli.main(["mc-table", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["mc-table", "--config", str(tmp_path / "no.cfg"),
                         "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_config_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 32\nbogus = 1\n")
        code = cli.main(["mc-table", "--config", str(cfg),
                         "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_output_directory(self, mc_config_file, tmp_path, capsys):
        out = tmp_path / "absent" / "table.csv"
        code = cli.main(["mc-table", "--config", str(mc_config_file),
                         "--out", str(out)])
        assert code == 2
        assert "directory" in capsys.readouterr().err

    def test_output_path_is_a_directory(self, mc_config_file, tmp_path,
                                        capsys):
        code = cli.main(["mc-table", "--config", str(mc_config_file),
                         "--out", str(tmp_path)])
        assert_input_error(code, capsys)


class TestEstimateChainCommand:
    @pytest.fixture()
    def chain_file(self, tmp_path, bench_model):
        cfg = ExperimentConfig(n=48, spectral_points=1024)
        chain = generate_synthetic_chain(
            bench_model, cfg.T, cfg.r, cfg.n, cfg.noise_fraction,
            (cfg.strike_mean, cfg.strike_variance), seed=3)
        path = tmp_path / "chain.csv"
        write_chain_csv(path, chain)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n = 48\nspectral_points = 1024\n")
        return path, cfg_path

    def test_writes_report_and_plot_csvs(self, chain_file, tmp_path, capsys):
        chain_path, cfg_path = chain_file
        out_dir = tmp_path / "results"       # created by the command
        code = cli.main(["estimate-chain", "--chain", str(chain_path),
                         "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["n"] == 48
        assert len(report["taus"]) == 20     # default threshold ladder
        for side in ("minus", "plus"):
            lines = (out_dir / f"quantiles_{side}.csv").read_text() \
                .strip().split("\n")
            assert lines[0] == "tau,quantile"
            assert len(lines) == 21
        assert "report.json" in capsys.readouterr().out

    def test_output_path_is_a_file(self, chain_file, tmp_path, capsys):
        chain_path, cfg_path = chain_file
        code = cli.main(["estimate-chain", "--chain", str(chain_path),
                         "--config", str(cfg_path), "--out", str(chain_path)])
        assert_input_error(code, capsys)

    def test_oversized_bandwidth_grid_is_refused(self, chain_file, tmp_path,
                                                 capsys):
        chain_path, cfg_path = chain_file
        cfg_path.write_text(cfg_path.read_text() + "L = 1.0000001\n")
        out_dir = tmp_path / "results"
        code = cli.main(["estimate-chain", "--chain", str(chain_path),
                         "--config", str(cfg_path), "--out", str(out_dir)])
        assert_input_error(code, capsys)
        assert not out_dir.exists()

    def test_missing_chain_file(self, chain_file, tmp_path, capsys):
        _, cfg_path = chain_file
        code = cli.main(["estimate-chain", "--chain",
                         str(tmp_path / "absent.csv"), "--config",
                         str(cfg_path), "--out", str(tmp_path / "r")])
        assert_input_error(code, capsys)

    def test_malformed_chain_names_line(self, chain_file, tmp_path, capsys):
        _, cfg_path = chain_file
        bad = tmp_path / "bad.csv"
        bad.write_text("x,price,noise\n0.1,oops,0.001\n")
        code = cli.main(["estimate-chain", "--chain", str(bad),
                         "--config", str(cfg_path),
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_chain_is_an_input_error(self, chain_file, tmp_path,
                                              capsys):
        _, cfg_path = chain_file
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"x,price,noise\n0.1,0.02,0.001\n0.2,0.01,\xb10.001\n")
        code = cli.main(["estimate-chain", "--chain", str(bad),
                         "--config", str(cfg_path),
                         "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "line 3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()


class TestDemoDirectCommand:
    def test_writes_json_report(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(DEMO_CFG)
        out = tmp_path / "report.json"
        code = cli.main(["demo-direct", "--config", str(cfg),
                         "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n"] == 400
        assert {row["side"] for row in report["results"]} == {"-", "+"}
        assert "closed-form truth" in capsys.readouterr().out

    def test_output_path_is_a_directory(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(DEMO_CFG)
        code = cli.main(["demo-direct", "--config", str(cfg),
                         "--out", str(tmp_path)])
        assert_input_error(code, capsys)

    def test_variance_gamma_method_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(DEMO_CFG.replace("exact-compound-poisson",
                                        "variance-gamma-subordination"))
        out = tmp_path / "r.json"
        code = cli.main(["demo-direct", "--config", str(cfg),
                         "--out", str(out)])
        assert_input_error(code, capsys)
        assert not out.exists()

    def test_non_utf8_config_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_bytes(DEMO_CFG.encode() + b"# spacing \xbd day\n")
        out = tmp_path / "r.json"
        code = cli.main(["demo-direct", "--config", str(cfg),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_poisson_count_overflow_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(DEMO_CFG.replace("intensity = 1.0", "intensity = 1e300"))
        out = tmp_path / "r.json"
        code = cli.main(["demo-direct", "--config", str(cfg),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "intensity * increment_delta" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_oversized_jump_draw_is_refused(self, tmp_path, capsys):
        # intensity * increment_delta = 1e6 at n = 5e4 would be 5e10 jump
        # sizes (400 GB): refused from the counts alone, quickly and small
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(DEMO_CFG.replace("intensity = 1.0", "intensity = 2e6")
                       .replace("n = 400", "n = 50000"))
        out = tmp_path / "r.json"
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = cli.main(["demo-direct", "--config", str(cfg),
                             "--out", str(out)])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_input_error(code, capsys)
        assert not out.exists()
        assert elapsed < 1.0
        assert peak < 20e6

    @pytest.mark.parametrize("h", ["1e-308", "1e-320"])
    def test_tiny_bandwidth_is_an_input_error(self, tmp_path, capsys, h):
        # 1/h (or the window 2/h) is not finite: refused with one line that
        # names h, before sampling and before any non-finite node is formed
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(DEMO_CFG.replace("h = 0.05", f"h = {h}"))
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["demo-direct", "--config", str(cfg),
                             "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: h = ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not caught, [str(w.message) for w in caught]
        assert not out.exists()

    # gamma: every phase u Y of the sample passes 2^52 rad, where its
    # rounding unit is 1 rad (at 1e200 Y^2 overflowed as well, and the run
    # exited 3 after a RuntimeWarning; at 1e150 it exited 0).
    # increment_delta: the trust threshold (delta n)^-1/2 of the cf is far
    # above 1, so no node could be trusted (the run exited 0 with every
    # estimate clamped, after RuntimeWarnings).  The unchanged config runs.
    @pytest.mark.parametrize("line, expected", [
        ("gamma = 1e200", 2), ("gamma = -1e200", 2), ("gamma = 1e150", 2),
        ("increment_delta = 5e-324", 2), ("increment_delta = 1e-300", 2),
        ("gamma = 1e300", 2), ("gamma = -1e300", 2),
        ("jump_rate = 1e-300", 2), ("gamma = 0.0", 0),
    ])
    def test_sample_without_signal_is_an_input_error(self, tmp_path, capsys,
                                                     line, expected):
        key = line.split(" = ")[0]
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("".join(row + "\n" for row in DEMO_CFG.splitlines()
                               if not row.startswith(key)) + line + "\n")
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["demo-direct", "--config", str(cfg),
                             "--out", str(out)])
        err = capsys.readouterr().err
        assert code == expected
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err and "RuntimeWarning" not in err
        if expected:
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(config):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setattr(cli, "demo_direct", boom)
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(DEMO_CFG)
        code = cli.main(["demo-direct", "--config", str(cfg),
                         "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure:")


def test_commands_import_no_quadrature_or_interpolation(tmp_path,
                                                         bench_model):
    # every command is closed-form end to end: the model layer needs no
    # quadrature, even for the inverse-cdf sampler on compound-Poisson
    # jumps (it reads the jump mean and second moment), and the chain
    # interpolant is a breakpoint table, so one fresh process (the test
    # suite itself imports both modules) runs all three commands without
    # importing scipy.integrate or scipy.interpolate
    mc_cfg = tmp_path / "mc.cfg"
    mc_cfg.write_text(MC_CFG)
    chain = generate_synthetic_chain(bench_model, 0.25, 0.06, 48, 0.01,
                                     (0.0, 0.5), seed=3)
    chain_csv = tmp_path / "chain.csv"
    write_chain_csv(chain_csv, chain)
    chain_cfg = tmp_path / "chain.cfg"
    chain_cfg.write_text("n = 48\nspectral_points = 1024\n")
    demo_cfg = tmp_path / "demo.cfg"
    demo_cfg.write_text(DEMO_CFG.replace(
        "exact-compound-poisson", "inverse-cdf-from-characteristic-function"))
    runs = [
        ["mc-table", "--config", str(mc_cfg),
         "--out", str(tmp_path / "table.csv")],
        ["estimate-chain", "--chain", str(chain_csv), "--config",
         str(chain_cfg), "--out", str(tmp_path / "chain")],
        ["demo-direct", "--config", str(demo_cfg),
         "--out", str(tmp_path / "demo.json")],
    ]
    script = ("import sys\n"
              "import levyq.cli\n"
              f"for args in {runs!r}:\n"
              "    assert levyq.cli.main(args) == 0, args\n"
              "for name in ('scipy.integrate', 'scipy.interpolate'):\n"
              "    assert name not in sys.modules, name\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=240,
                          cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command, line", [
    ("mc-table", "sigma = 1e200"),
    ("mc-table", "spectral_points = 4503599627370496"),
    ("demo-direct", "sigma = 1e200"),
    ("demo-direct", "spectral_points = 4503599627370496"),
    ("demo-direct", "n = 1000000000000"),
], ids=["mc-sigma-squared-overflows", "mc-spectral-points-2-52",
        "demo-sigma-squared-overflows", "demo-spectral-points-2-52",
        "demo-n-10-12"])
def test_oversized_config_value_is_refused(tmp_path, capsys, command, line):
    # refused by the config check, before anything is allocated
    key = line.split(" = ")[0]
    base = MC_CFG if command == "mc-table" else DEMO_CFG
    cfg = tmp_path / "big.cfg"
    cfg.write_text("".join(row + "\n" for row in base.splitlines()
                           if not row.startswith(key)) + line + "\n")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_input_error(code, capsys)
    assert not out.exists()
    assert peak < 20e6


def chain_file(tmp_path, n):
    """A seed-1 default CGMY chain of n quotes at 1 % noise, as a CSV."""
    path = tmp_path / "chain.csv"
    config = ExperimentConfig(n=n)
    write_chain_csv(path, generate_synthetic_chain(
        levyq.harness.pricing_model(config), config.T, config.r, n, 0.01,
        (0.0, 0.5), seed=1))
    return path


@pytest.mark.parametrize("command, lines", [
    ("mc-table", ["L = 1.01", "spectral_points = 131072"]),
    ("estimate-chain", ["L = 1.01", "spectral_points = 131072"]),
    ("demo-direct", ["h = 1.0", "x_max = 500000.0",
                     "spectral_points = 524288"]),
], ids=["mc-144-bandwidths-2-17-points", "chain-144-bandwidths-2-17-points",
        "demo-x-max-5e5"])
def test_oversized_inversion_is_refused(tmp_path, capsys, command, lines):
    # each value passes its own check, but the inversion would need about
    # 1.5 GB (144 bandwidths x 2^17 points) or 8 GB (5e7 tail nodes):
    # refused from the sizes alone, before anything is allocated
    keys = [line.split(" = ")[0] for line in lines]
    base = DEMO_CFG if command == "demo-direct" else MC_CFG
    cfg = tmp_path / "big.cfg"
    cfg.write_text("".join(row + "\n" for row in base.splitlines()
                           if row.split(" = ")[0] not in keys)
                   + "".join(line + "\n" for line in lines))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "estimate-chain":
        argv[1:1] = ["--chain", str(chain_file(tmp_path, 32))]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_input_error(code, capsys)
    assert not out.exists()
    assert peak < 20e6


@pytest.mark.parametrize("line", ["G = 5e-324", "M = 5e-324", "G = 1e-141"])
def test_tiny_tempering_rate_is_refused(tmp_path, capsys, line):
    # G t underflowed to 0.0 in the truth oracle's Gamma(-Y, G t), and
    # 0.0 ** -Y raised a ZeroDivisionError: refused by the config check
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(MC_CFG + line + "\n")
    out = tmp_path / "t.csv"
    code = cli.main(["mc-table", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {line[0]} must be at least 1e-140")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, line, window", [
    ("mc-table", "n = 200000", "200000"),
    ("demo-direct", "h = 1e-05", "100000"),
], ids=["mc-table-n-2e5", "demo-h-1e-5"])
def test_grid_above_the_cap_is_refused(tmp_path, capsys, command, line,
                                       window):
    # without spectral_points the sizing rule asks for more than 2^19
    # points: one error line that names the window and x_max
    key = line.split(" = ")[0]
    base = MC_CFG if command == "mc-table" else DEMO_CFG
    cfg = tmp_path / "wide.cfg"
    drop = (key, "spectral_points")
    cfg.write_text("".join(row + "\n" for row in base.splitlines()
                           if row.split(" = ")[0] not in drop) + line + "\n")
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"window of {window} with x_max = 5" in err
    assert not out.exists()


@pytest.mark.parametrize("command, base", [
    ("mc-table", MC_CFG),
    ("estimate-chain", "n = 48\nspectral_points = 1024\n"),
    ("demo-direct", DEMO_CFG),
    ("demo-direct", "kind = cgmy\nn = 100\nspectral_points = 512\nmethod = "
                    "inverse-cdf-from-characteristic-function\n"),
], ids=["mc-table", "estimate-chain", "demo-compound-poisson",
        "demo-cgmy-inverse-cdf"])
def test_huge_sigma_is_refused(tmp_path, capsys, command, base):
    # sigma^2 = 1e300 is finite, but pricing would lose the jump part of
    # psi(-i) to the rounding of sigma^2 T / 2 (mc-table exited 3 with a
    # martingale message), and the increments' cf is 0 at every node
    # (demo-direct exited 0 with every estimate wrong)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("".join(row + "\n" for row in base.splitlines()
                           if not row.startswith("sigma"))
                   + "sigma = 1e150\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "estimate-chain":
        argv[1:1] = ["--chain", str(chain_file(tmp_path, 48))]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "sigma = 1e+150" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, line, chain_edit, message", [
    ("mc-table", "strike_mean = -1e3", None,
     "x = -1001.33 lies outside the pricing grid's domain |x| < pi / du"),
    ("estimate-chain", "", {"shift": -1e3}, "leftmost knot x = -1001.3"),
    ("mc-table", "noise_fraction = 1e300", None,
     "quote-noise summary is not finite"),
    ("estimate-chain", "", {"noise": 1e200},
     "quote-noise summary is not finite"),
    ("mc-table", "Y = -1e3", None, "Gamma(-Y) is finite"),
    ("demo-direct", CGMY_ICDF + "Y = -171", None, "Gamma(2-Y) is finite"),
    ("demo-direct", CGMY_ICDF + "Y = -100", None,
     "characteristic function is not finite"),
    ("mc-table", "strike_mean = -20", None, "carry no signal"),
    ("mc-table", "strike_mean = -50", None, "carry no signal"),
    ("estimate-chain", "", {"scale": 0.0, "noise": 0.0}, "carries no signal"),
    ("estimate-chain", "", {"scale": 0.0, "noise": 1e-3},
     "carries no signal"),
    ("mc-table", "G = 1e-20\nY = -20", None, "G^Y is not finite"),
    ("demo-direct", CGMY_ICDF + "G = 1e-20\nY = -20", None,
     "G^Y is not finite"),
    ("mc-table", "strike_mean = -300", None,
     "x = -301.327 lies outside the pricing grid's domain"),
    ("mc-table", "strike_mean = 60", None, "carry no signal"),
    ("mc-table", "G = 1e8\nY = -50", None, "G^Y underflows"),
    ("mc-table", "M = 1e8\nY = -40", None, "M^Y underflows"),
    ("mc-table", "G = 0.001\nY = -99", None, "C Gamma(-Y) G^Y overflows"),
    ("demo-direct", CGMY_ICDF.replace("sigma = 0", "sigma = 0.1")
     + "G = 1e8\nY = -50", None, "G^Y underflows"),
    ("mc-table", "G = 1e8\nY = 1.999", None,
     "cancellation in the characteristic exponent"),
], ids=["mc-strike-far-left", "chain-strike-far-left", "mc-huge-noise",
        "chain-huge-noise", "mc-very-negative-Y", "demo-Y-171", "demo-Y-100",
        "mc-all-zero-20", "mc-all-zero-50", "chain-all-zero",
        "chain-all-zero-noisy", "mc-power-overflows", "demo-power-overflows",
        "mc-dust-left", "mc-dust-right", "mc-power-underflows",
        "mc-power-underflows-M", "mc-term-overflows",
        "demo-power-underflows", "mc-exponent-cancels"])
def test_design_that_overflows_is_refused(tmp_path, capsys, command, line,
                                          chain_edit, message):
    # e^{-x} at strikes 1,000 below the forward, the square of a 1e300-fold
    # noise profile and Gamma(1,000) overflowed: RuntimeWarnings, then
    # exit 3 blaming an empty trust region or a non-finite option function.
    # The increments sampler's Gamma(2-Y) and its cf overflowed too: exit 2
    # only after RuntimeWarnings, blaming the increments or the cf floor.
    # Quotes that are all 0 carry no signal; every bandwidth fell to the
    # density guard, exit 3.  G^Y at a tiny G and a negative Y raised a
    # raw OverflowError in the exponent (mc-table) and in the mean
    # (demo-direct).  Designs far from the money, whose exact quotes are
    # quadrature dust below 3e-15, exited 0 with a table of clamps; past
    # the pricing grid's domain |x| < 128.67 (strike_mean = -300 or -1e3)
    # the prices alias, and pricing refuses the first such strike.  A
    # power of a huge rate that underflows, and a term C Gamma(-Y) G^Y
    # that overflows, warned in numpy's complex powers, then exited 3 (or
    # 2 in the sampler) on a non-finite option function or cf.  At Y near
    # 2 the closed-form exponent cancels to T Re psi(u - i) = 2502 > 0, and
    # np.exp overflowed in option pricing before exit 3
    cfg = tmp_path / "far.cfg"
    cfg.write_text(MC_CFG + line + "\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "estimate-chain":
        chain = read_chain_csv(chain_file(tmp_path, 32), maturity=0.25,
                               rate=0.06)
        chain = dataclasses.replace(
            chain, xs=chain.xs + chain_edit.get("shift", 0.0),
            prices=chain.prices * chain_edit.get("scale", 1.0),
            noise_levels=chain.noise_levels * 0 + chain_edit.get(
                "noise", chain.noise_levels))
        write_chain_csv(tmp_path / "edited.csv", chain)
        argv[1:1] = ["--chain", str(tmp_path / "edited.csv")]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert message in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_console_script_installed(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        setuptools = pytest.importorskip("setuptools")
        with PYPROJECT.open("rb") as fh:
            project = tomllib.load(fh)
        module, _, attr = project["project"]["scripts"]["levyq"].partition(":")

        # An install would ship the package the script imports.
        find = project["tool"]["setuptools"]["packages"]["find"]
        shipped = {pkg for where in find["where"]
                   for pkg in setuptools.find_packages(PYPROJECT.parent / where)}
        assert module.split(".")[0] in shipped

        script = tmp_path / "bin" / "levyq"
        script.parent.mkdir()
        script.write_text(_WRAPPER.format(module=module, attr=attr))
        env = _child_env()
        command = [sys.executable, str(script)]

        _run_demo(command, tmp_path, env)

        # main()'s return value must become the process exit status.
        bad = tmp_path / "bad.cfg"
        bad.write_text(DEMO_CFG.replace("kind = compound-poisson-exp",
                                       "kind = nope"))
        proc = subprocess.run(
            command + ["demo-direct", "--config", str(bad),
                       "--out", str(tmp_path / "bad.json")],
            capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(
        shutil.which("levyq") is None,
        reason="levyq console script not on PATH (package not installed)")
    def test_console_script_on_path(self, tmp_path):
        _run_demo([shutil.which("levyq")], tmp_path)


# ---------------------------------------------------------------------------
# fuzz: every float config key set, one at a time, to an extreme value

# the float keys (taus as a single level) and the values they are set to
FUZZ_KEYS = sorted(key for key, kind in levyq.harness._KEY_TYPES.items()
                   if kind in (float, tuple))
FUZZ_VALUES = (0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, math.nan,
               math.inf, -math.inf, 1e-8, 1e8, -1.0, 2.0, 0.999999)
# each command at a small size; a fuzzed key replaces the base's value
FUZZ_BASE = {
    "mc-table": {"n": 32, "taus": 1.0, "spectral_points": 512,
                 "replications": 1},
    "estimate-chain": {"n": 32, "spectral_points": 512},
    "demo-direct": dict(line.split(" = ") for line in DEMO_CFG.splitlines()),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    chain_file(path, 32)
    return path


def _assert_finite_json(value):
    """Every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            _assert_finite_json(item)
    elif isinstance(value, float):
        assert math.isfinite(value)


def _assert_finite_csv(text, blank_columns=()):
    """Every cell of a CSV text is a finite number; only the columns named
    in `blank_columns` may hold empty cells."""
    header, *rows = text.splitlines()
    names = header.split(",")
    assert rows
    for row in rows:
        for name, cell in zip(names, row.split(","), strict=True):
            if cell == "" and name in blank_columns:
                continue
            assert math.isfinite(float(cell)), (name, cell)


def fuzz_run(workdir, command, overrides, chain="chain.csv"):
    """One command in-process on its small base config with `overrides`
    (estimate-chain on the chain file `chain` of `workdir`); asserts the
    exit-code contract and finite outputs of a clean exit.  A traceback or
    a RuntimeWarning (made an error here) fails it as an uncaught
    exception."""
    values = {**FUZZ_BASE[command], **overrides}
    cfg = workdir / "fuzz.cfg"
    cfg.write_text("".join(f"{key} = {value}\n"
                           for key, value in values.items()))
    out = workdir / "out"
    if out.is_dir():
        shutil.rmtree(out)
    out.unlink(missing_ok=True)
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "estimate-chain":
        argv[1:1] = ["--chain", str(workdir / chain)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code:
        assert err.splitlines()[-1].startswith(
            ("error:", "numerical failure:")), err
        return
    if command == "mc-table":
        # an RMSE cell is empty where no replication of it was clean
        _assert_finite_csv(out.read_text(), blank_columns={
            f"rmse_{kind}_{side}" for kind in ("oracle", "adaptive")
            for side in ("minus", "plus")})
    elif command == "estimate-chain":
        _assert_finite_json(json.loads((out / "report.json").read_text()))
        for side in ("minus", "plus"):
            _assert_finite_csv((out / f"quantiles_{side}.csv").read_text())
    else:
        _assert_finite_json(json.loads(out.read_text()))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(FUZZ_BASE)),
       overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS),
                                 st.sampled_from(FUZZ_VALUES),
                                 min_size=1, max_size=1))
# pairs of keys found by a fuzz over pairs: numpy's complex powers warned,
# then the run exited 3 (or 2 in the sampler)
@example(command="mc-table", overrides={"G": 1e8, "Y": -50.0})
@example(command="mc-table", overrides={"M": 1e8, "Y": -40.0})
@example(command="mc-table", overrides={"G": 0.001, "Y": -99.0})
@example(command="demo-direct", overrides={
    "kind": "cgmy", "method": "inverse-cdf-from-characteristic-function",
    "sigma": 0.1, "G": 1e8, "Y": -50.0})
def test_extreme_config_exits_cleanly(fuzz_dir, command, overrides):
    # the whole single-key domain (22 keys x 14 values x 3 commands) ran
    # clean by exhaustive sweep, mc-table at taus = 1e-300 with finite
    # rows; this draws a fixed sample of it
    fuzz_run(fuzz_dir, command, overrides)


# ---------------------------------------------------------------------------
# fuzz: the chain file of estimate-chain, edited

# a whole column (0 x, 1 price, 2 noise) scaled or shifted, one cell set to
# NaN, a row blanked, doubled or given a byte that is not UTF-8
CHAIN_FACTORS = (0.0, -1.0, 5e-324, 1e-300, 1e-8, 1e8, 1e155, 1e300,
                 1.79e308, math.inf, math.nan)
CHAIN_SHIFTS = (-1e3, -354.0, -5.0, 5.0, 1e155, 1e300, -1e300)
_COLUMNS = st.integers(min_value=0, max_value=2)
_ROWS = st.integers(min_value=0, max_value=31)
ROW_EDITS = ("blank", "duplicate", "byte")
CHAIN_EDITS = st.one_of(
    st.tuples(st.just("scale"), _COLUMNS, st.sampled_from(CHAIN_FACTORS)),
    st.tuples(st.just("shift"), _COLUMNS, st.sampled_from(CHAIN_SHIFTS)),
    st.tuples(st.just("nan"), _COLUMNS, _ROWS),
    st.tuples(st.sampled_from(ROW_EDITS), _ROWS))


def _edited_chain(data: bytes, edit) -> bytes:
    """The bytes of a chain file after one edit of CHAIN_EDITS."""
    header, *rows = data.splitlines()
    kind, *args = edit
    if kind in ("scale", "shift"):
        column, by = args
        for i, row in enumerate(rows):
            parts = row.split(b",")
            value = float(parts[column])
            value = value * by if kind == "scale" else value + by
            parts[column] = repr(value).encode()
            rows[i] = b",".join(parts)
    elif kind == "nan":
        column, i = args
        parts = rows[i].split(b",")
        parts[column] = b"nan"
        rows[i] = b",".join(parts)
    elif kind == "blank":
        rows[args[0]] = b""
    elif kind == "duplicate":
        rows.insert(args[0], rows[args[0]])
    else:
        rows[args[0]] = rows[args[0]][:3] + b"\xb1" + rows[args[0]][3:]
    return b"\n".join([header, *rows]) + b"\n"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(CHAIN_EDITS, min_size=1, max_size=2))
# spot-normalized prices of 1e155 and more: |phi~|^2 overflowed in the
# screen and the deviation bound with a RuntimeWarning, then exit 0
@example(edits=[("scale", 1, 1e155)])
@example(edits=[("shift", 1, 1.7e308)])
def test_edited_chain_file_exits_cleanly(fuzz_dir, edits):
    # the 246 single edits of a sweep over these values and every row ran
    # clean, the noise column x 1e8, x 1e155 or + 5 with exit 2; this
    # draws a fixed sample of one or two edits
    data = (fuzz_dir / "chain.csv").read_bytes()
    # the cell edits first, while every row still parses
    for edit in sorted(edits, key=lambda e: e[0] in ROW_EDITS):
        data = _edited_chain(data, edit)
    (fuzz_dir / "edited.csv").write_bytes(data)
    fuzz_run(fuzz_dir, "estimate-chain", {}, chain="edited.csv")


@pytest.mark.parametrize("edit", [("scale", 2, 1e8), ("scale", 2, 1e150),
                                  ("shift", 2, 5.0)],
                         ids=["noise-x1e8", "noise-x1e150", "noise-plus-5"])
def test_noise_swamped_chain_is_refused(fuzz_dir, capsys, edit):
    # every noise level so large that no node is trusted in the window of
    # the largest bandwidth: the chain carries no signal, an input error
    # raised once for the table (it exited 3 from the deviation bound of
    # the first bandwidth, "trust region is empty")
    data = _edited_chain((fuzz_dir / "chain.csv").read_bytes(), edit)
    (fuzz_dir / "swamped.csv").write_bytes(data)
    cfg = fuzz_dir / "swamped.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value
                           in FUZZ_BASE["estimate-chain"].items()))
    out = fuzz_dir / "swamped"
    code = cli.main(["estimate-chain", "--config", str(cfg), "--out", str(out),
                     "--chain", str(fuzz_dir / "swamped.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: no trusted node in |u| <= 7.66, the "
                          "window of the largest bandwidth")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_noise_swamped_replications_are_excluded_whole(tmp_path, capsys):
    # at noise_fraction = 1e8 the chains of replications 0 and 1 have no
    # trusted node in the window of the largest bandwidth: each is
    # excluded as a whole, on one line (one per cell before), and
    # replication 2 stays clean
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in {
        **FUZZ_BASE["mc-table"], "replications": 3,
        "noise_fraction": 1e8}.items()))
    out = tmp_path / "table.csv"
    code = cli.main(["mc-table", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "2 of 6 replication cells clean, 4 failures" in captured.out
    excluded = [line for line in captured.err.splitlines()
                if "excluded:" in line]
    assert [line.split(":")[1] for line in excluded] == [
        " replication 0", " replication 1"]
    assert all("no trusted node in |u| <=" in line for line in excluded)
    _assert_finite_csv(out.read_text())
