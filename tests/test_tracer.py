"""The benchmark tracer (bench/tracer.py) under two tiny commands.

The tracer wraps levyq functions by name and its counter hooks read their
arguments and results: the ``spectra`` and ``h`` arguments of
`sigma_tilde`, ``result.trusted`` of `compute_chain_spectra` and
``result.feasible`` of `build_grid` (its quantile hook names a function
that no longer exists, so that site is listed as absent).  A hook survives
only a KeyError, AttributeError or TypeError, so a wrapped function whose
result changes kind (an array where a record was) can crash a traced run.
These tests import the tracer as the benchmark does and run each command
under it.  `mc-table` and `estimate-chain` must record calls of the
deviation bound and of the selector, and `demo-direct` calls of the
empirical cf and of the sampler, so that a rename cannot hide any of them
from the benchmark.
"""

import importlib
import sys
from pathlib import Path

import pytest

import levyq.cli as cli
from levyq.harness import ExperimentConfig, pricing_model
from levyq.options import generate_synthetic_chain, write_chain_csv

BENCH = Path(__file__).resolve().parents[1] / "bench"

CONFIG = "n = 32\nspectral_points = 1024\ntaus = 0.5 1.0\nreplications = 2\n"
DEMO_CONFIG = ("kind = compound-poisson-exp\nsigma = 0\nintensity = 5\n"
               "n = 2000\nspectral_points = 512\ntaus = 0.5 1.0\n")


@pytest.fixture(scope="module")
def tracer_module():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def chain_file(tmp_path):
    cfg = ExperimentConfig(n=32)
    chain = generate_synthetic_chain(
        pricing_model(cfg), cfg.T, cfg.r, cfg.n, cfg.noise_fraction,
        (cfg.strike_mean, cfg.strike_variance), seed=1)
    path = tmp_path / "chain.csv"
    write_chain_csv(path, chain)
    return path


@pytest.mark.parametrize("command",
                         ["mc-table", "estimate-chain", "demo-direct"])
def test_traced_command_completes_and_counts(tracer_module, tmp_path, capsys,
                                             command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DEMO_CONFIG if command == "demo-direct" else CONFIG)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "estimate-chain":
        argv[1:1] = ["--chain", str(chain_file(tmp_path))]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    if command == "demo-direct":
        assert tracer.calls["increments.ecf"] > 0
        assert tracer.calls["simulate.sampling"] > 0
    else:
        assert tracer.calls["adaptive.sigma"] > 0
        assert tracer.calls["adaptive.select"] > 0
        assert tracer.counts["adaptive.sigma.mask"] > 0
        assert tracer.counts["adaptive.sigma.grid"] > 0
    assert not [entry for entry in tracer.absent
                if entry.startswith("counter of")]
    # uninstall restores every wrapped function
    assert cli.main(argv) == 0
