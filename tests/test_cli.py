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

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import levyq
import levyq.cli as cli
from levyq.errors import NumericalError
from levyq.harness import ExperimentConfig, parse_config_text, run_mc_table
from levyq.options import generate_synthetic_chain, write_chain_csv

MC_CFG = ("n = 32\n"
          "taus = 1.0\n"
          "spectral_points = 1024\n"
          "replications = 1\n"
          "seed = 11\n")

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

    def test_overrides_match_library_call(self, mc_config_file, tmp_path):
        out = tmp_path / "table.csv"
        code = cli.main(["mc-table", "--config", str(mc_config_file),
                         "--reps", "2", "--seed", "21", "--out", str(out)])
        assert code == 0
        expected = run_mc_table(dataclasses.replace(
            parse_config_text(MC_CFG), replications=2, seed=21))
        assert out.read_text() == expected.to_csv()

    @pytest.mark.parametrize("flag", [["--reps", "0"], ["--seed", "-4"]])
    def test_bad_overrides_are_input_errors(self, mc_config_file, tmp_path,
                                            capsys, flag):
        out = tmp_path / "table.csv"
        code = cli.main(["mc-table", "--config", str(mc_config_file),
                         *flag, "--out", str(out)])
        assert_input_error(code, capsys)
        assert not out.exists()

    def test_nonfinite_prices_are_a_numerical_failure(self, tmp_path,
                                                      capsys):
        # far-out strikes overflow the pricing reference; every replication
        # would be excluded and the table left blank
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(MC_CFG + "strike_variance = 1e6\n")
        out = tmp_path / "t.csv"
        code = cli.main(["mc-table", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_oracle_mode_with_per_replication_screen(self, tmp_path, capsys):
        # the screen passes at a different j_min in each replication; this
        # config once escaped the exit-code contract with a raw ValueError
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("noise_fraction = 0.0012\n"
                       "replications = 10\n"
                       "mode = oracle\n")
        out = tmp_path / "table.csv"
        code = cli.main(["mc-table", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert "0 failures" in capsys.readouterr().out
        rows = [line.split(",") for line in out.read_text().split()[1:]]
        assert len(rows) == len(ExperimentConfig().taus)
        for row in rows:
            assert row[3] and row[5]            # oracle cells filled
            assert not row[4] and not row[6]    # adaptive cells blank

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

    def test_no_quadrature_module_is_imported(self, tmp_path):
        # the model layer is closed-form: even the inverse-cdf sampler on
        # compound-Poisson jumps, which reads the jump mean and second
        # moment, runs without importing scipy.integrate (a fresh process,
        # since the test suite itself imports it)
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(DEMO_CFG.replace(
            "exact-compound-poisson",
            "inverse-cdf-from-characteristic-function"))
        args = ["demo-direct", "--config", str(cfg),
                "--out", str(tmp_path / "r.json")]
        script = ("import sys\n"
                  "import levyq.cli\n"
                  f"assert levyq.cli.main({args!r}) == 0\n"
                  "assert 'scipy.integrate' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              cwd=tmp_path, env=_child_env())
        assert proc.returncode == 0, proc.stderr

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
