"""The benchmark's span tracer sees every function it is told to trace.

`bench/tracing.py` wraps functions where their callers look them up at
call time.  A traced function that is renamed, deleted, or captured at
import time (a table row, a default argument, a module-level alias)
keeps running untraced, and the traced benchmark run then misses a
per-layer metric.  This test runs the traced smoke's calls in-process,
reading `bench/` without changing it.
"""

import importlib.util
import pathlib

import pytest

from lerchlab import LerchParams, Parity, cli, harness, lerch_core

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location(
        "lerchlab_bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_records_spans(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--config", str(BENCH / "verify.cfg"),
                         "--seed", "7", "--quiet",
                         "--json-out", str(tmp_path / "r.json"),
                         "--csv-out", str(tmp_path / "r.csv")])
        params = LerchParams(0.5 + 3j, 0.3, 0.6)
        lerch_core.lerch_star(params)
        lerch_core.lerch_zeta(params)
        lerch_core.L_pm(params, Parity.PLUS)
    finally:
        tracer.uninstall()
    assert code == 0
    recorded = {span[0] for span in tracer.spans}
    expected = {name for _, _, name, _ in tracing.FUNCTIONS}
    expected |= {f"harness.group.{g}" for g in harness.CHECK_GROUPS}
    expected |= {"harness.test_fn", "twisted_space.extend",
                 "quadrature.integrate"}
    assert sorted(expected - recorded) == []
