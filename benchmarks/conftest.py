"""Benchmark configuration.

Experiment benches regenerate a paper table/figure per run; they are
deterministic end-to-end computations, so they run pedantically (1 round).
Set ``REPRO_BENCH_SCALE`` to ``test`` (fast, default), ``default`` (quarter
scale, minutes) or ``paper`` (paper-size matrices) to choose the matrix
scale; run with ``-s`` to see the regenerated tables.

The kernel *microbenchmarks* (``test_kernels.py``) carry the ``bench``
marker and are deselected by the default pytest invocation (``pytest.ini``
adds ``-m "not bench"``), keeping tier-1 runs fast.  Run them and refresh
the committed perf snapshot with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py -m bench \
        --benchmark-json=BENCH_kernels.json -q

``BENCH_kernels_seed.json`` preserves the seed-commit numbers the current
snapshot's ``seed_baseline`` section is computed against.

Written snapshots carry summary statistics only: the per-round samples
are dropped (see :func:`pytest_benchmark_update_json`).
"""

import os

import pytest


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Drop each benchmark's per-round ``stats["data"]`` samples.

    ``check_regression.py`` reads only medians and ``extra_info``; the raw
    rounds made the committed snapshots megabytes of noise.
    """
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)


@pytest.fixture(scope="session")
def scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "test")


@pytest.fixture
def once(benchmark):
    """Run a deterministic experiment exactly once under the benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
