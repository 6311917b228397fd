#!/usr/bin/env python3
"""End-to-end benchmark of the ReFloat emulator: suite runs and the service.

Run from the repository root, one fresh process per run::

    python3 perfbench/run.py --workload suite-test --seed 1 --seconds 35 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen), each run
pinned to one CPU:

``suite-test``     ``run_suite`` for cg and bicgstab over the 12 suite
                   matrices at ``test`` scale on the four paper platforms.
``suite-default``  the same at ``default`` scale on gpu / feinberg_fc /
                   refloat, cold-built into a fresh store under a 4 GiB
                   address-space cap.
``service-burst``  an in-process ``SolveService`` fed an open loop of
                   4-request same-key ``VectorJob`` bursts.

``--trace 0`` prints the end-to-end metrics, then wall-clock figures that
are shown but not gated; ``--trace 1`` wraps the library's entry points
and class methods with the span tracer of ``spans.py`` and prints the
per-layer metrics instead.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
an output check fails, 2 when the repository's ``src/`` tree is missing.
"""

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

# One BLAS thread, set before numpy loads.  OpenBLAS splits its reductions
# by thread count, so with one thread per CPU the suites' iteration counts
# depend on the machine (at default scale, 1313/bicgstab on gpu converges
# in 53 iterations with one thread and 58 with two), and its idle threads
# spin, burning CPU time that is not the program's work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"   # per-run store and ledger roots, removed at exit
OUT = HERE / "_out"     # span files written by traced runs
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"   # metric names and units

SOLVERS = ("cg", "bicgstab")
#: suite-test's iteration budget.  Every converged test-scale cell stops
#: below 240 iterations; the 7 Feinberg cells that never converge grind to
#: this cap instead of the paper's 20 000, so one suite pass takes seconds.
SUITE_TEST_MAX_ITERATIONS = 2000
#: suite-default's address-space cap: the dense BSR tensors of sids 2257
#: and 2259 (4.1 and 9.2 GB) raise MemoryError instead of exhausting RAM.
SUITE_DEFAULT_AS_BYTES = 4 << 30

SERVICE_SID, SERVICE_SCALE = 355, "default"
SERVICE_PLATFORM, SERVICE_SOLVER = "refloat", "cg"
BURST = 4
#: A coalesced burst takes ~0.4 s on one CPU, so 1 s leaves room for a
#: busy host.  A 35 s run sends 35 bursts.
PERIOD_S = 1.0
#: A run whose generator sent a burst later than this is invalid.
LATE_LIMIT_S = 0.25 * PERIOD_S

WORKLOADS = {
    "suite-test": {"scale": "test", "platforms": None, "setups": 15},
    "suite-default": {"scale": "default",
                      "platforms": ("gpu", "feinberg_fc", "refloat"),
                      "setups": 3},
    "service-burst": {"setups": 15},
}

def peak_rss_mb():
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cpu_seconds():
    """CPU time of this process, all its threads, its reaped children and
    its live ones (process-pool workers).

    Set-up and throughput are measured in CPU time, not wall time: on a
    shared host the hypervisor takes the CPUs away for long stretches
    (steal time), which stretches wall time by up to half from one minute
    to the next but is not counted as the process's CPU time.
    """
    t = os.times()
    total = time.process_time() + t.children_user + t.children_system
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
            fields = stat.rsplit(")", 1)[1].split()
            total += ((int(fields[11]) + int(fields[12]))
                      / os.sysconf("SC_CLK_TCK"))
        except (OSError, IndexError, ValueError):
            pass  # exited between listing and reading
    return total


def host_ticks():
    """(steal, total) clock ticks of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return ticks[7], sum(ticks)


def steal_frac(before):
    """Share of the CPUs' time the hypervisor took away since ``before``."""
    steal, total = host_ticks()
    return (steal - before[0]) / max(1, total - before[1])


def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with at least ``q`` %
    of the samples at or below it."""
    values = sorted(samples)
    return float(values[max(1, -(-len(values) * q // 100)) - 1])


# ---------------------------------------------------------------------------
# Correctness


def load_reference(workload):
    return json.loads(REFERENCE.read_text())[workload]


def suite_mismatches(reference, solver, res):
    """Compare one ``run_suite`` result with the reference verdict table.

    A converged cell must converge in the pinned iteration count; a
    non-converged one must not converge (its count is left unpinned).
    Every cell in the table must be among the completed ones; cells absent
    from the table (they failed when it was made) are not checked.
    """
    out, seen = [], set()
    for sid, run in res.items():
        for platform, r in run.results.items():
            key = f"{sid}/{solver}/{platform}"
            seen.add(key)
            if key not in reference:
                continue
            converged, iterations = reference[key]
            if bool(r.converged) != converged or (
                    converged and int(r.iterations) != iterations):
                out.append(f"{key}: got converged={bool(r.converged)} "
                           f"iterations={int(r.iterations)}, expected "
                           f"converged={converged} iterations={iterations}")
    out += [f"{key}: not completed" for key in sorted(reference)
            if key.split("/")[1] == solver and key not in seen]
    return out


# ---------------------------------------------------------------------------
# Suite workloads


def suite_workload(name, seconds, tracer, work, update_reference):
    from repro.api import RunConfig, set_active
    from repro.experiments import common
    from repro.solvers.base import ConvergenceCriterion
    from repro.sparse.gallery.suite import suite_ids

    wl = WORKLOADS[name]
    scale = wl["scale"]
    criterion = (ConvergenceCriterion(max_iterations=SUITE_TEST_MAX_ITERATIONS)
                 if scale == "test" else None)

    # Set-up: cold-build every matrix's assets into a fresh store, several
    # times; the last build's assets stay cached for the measured phase.
    setup_s, store = [], None
    for _ in range(wl["setups"]):
        common.clear_run_caches()
        if store is not None:
            shutil.rmtree(store)
        store = tempfile.mkdtemp(dir=work)
        set_active(RunConfig(store=store, criterion=criterion))
        start = cpu_seconds()
        for sid in suite_ids():
            try:
                common.matrix_assets(sid, scale)
            except MemoryError:
                pass  # fails again, and is counted, in the measured phase
        setup_s.append(cpu_seconds() - start)

    reference = {} if update_reference else load_reference(name)
    observed, mismatches, walls, rates = {}, [], [], []
    attempted = failed = 0
    sched = {"queue_wait_s": 0.0, "max_inflight": 0}
    if tracer is not None:
        tracer.phase = "measure"
    begin, ticks = time.perf_counter(), host_ticks()
    passes = 0
    while True:
        start, cpu = time.perf_counter(), cpu_seconds()
        nnz = cells = 0
        for solver in SOLVERS:
            if tracer is not None:
                tracer.busy.clear()
            res = common.run_suite(solver, scale, use_cache=False,
                                   platforms=wl["platforms"],
                                   on_error="collect")
            attempted += len(res) + len(res.failures)
            failed += len(res.failures)
            mismatches += suite_mismatches(reference, solver, res)
            for sid, run in res.items():
                nnz += run.nnz
                cells += 1
                for platform, r in run.results.items():
                    observed[f"{sid}/{solver}/{platform}"] = [
                        bool(r.converged),
                        int(r.iterations) if r.converged else None]
            for key, node in res.stats.trace.items():
                if (tracer is not None and node["kind"] != "asset"
                        and node["state"] == "done"):
                    sched["queue_wait_s"] += (
                        node["finished"] - node["first_dispatch"]
                        - tracer.busy.get(key, 0.0))
            summary = res.stats.trace_summary() or {}
            sched["max_inflight"] = max(sched["max_inflight"],
                                        summary.get("max_inflight", 0))
        wall = time.perf_counter() - start
        walls.append(wall)
        rates.append((nnz / (cpu_seconds() - cpu), cells / wall))
        passes += 1
        if passes == 1:
            # Peak memory of set-up plus one suite run.  Later passes add
            # ~45 MB each at default scale, so a peak taken at the end
            # would grow with the number of passes a run fits in.
            rss_mb = peak_rss_mb()
        # Stop before a pass that would end past the budget.
        if time.perf_counter() - begin + wall > seconds:
            break
    measured_s = time.perf_counter() - begin
    steal = steal_frac(ticks)
    if tracer is not None:
        tracer.phase = "done"

    if update_reference:
        write_reference(name, observed)
    metrics = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "solved_nnz_per_cpu_s": (statistics.median(r[0] for r in rates),
                                 passes),
        "completed_frac": ((attempted - failed) / attempted, attempted),
        "peak_rss_mb": (rss_mb, 1),
    }
    info = {
        "completed_rps": (statistics.median(r[1] for r in rates), passes),
        "latency_p50_s": (percentile(walls, 50), passes),
        "latency_p90_s": (percentile(walls, 90), passes),
        "host_steal_frac": (steal, 1),
    }
    extra = {"api.scheduler.queue_wait_s": sched["queue_wait_s"] / passes,
             "api.scheduler.max_inflight": sched["max_inflight"]}
    return {"metrics": metrics, "wall": info, "attempted": attempted,
            "failed": failed, "errors": mismatches, "setups": len(setup_s),
            "units": passes, "measured_s": measured_s, "extra": extra}


def write_reference(name, observed):
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[name] = dict(sorted(observed.items()))
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Service workload


def stop_service(svc, server):
    svc.shutdown()
    server.join()
    svc.close()


def service_workload(seed, seconds, tracer, work):
    import numpy as np

    from repro.api import RunConfig, set_active
    from repro.experiments import common
    from repro.service import SolveService, VectorJob
    from repro.solvers import cg

    config = RunConfig(store=tempfile.mkdtemp(dir=work))
    # Untimed prelude: populate the store the daemon attaches to.
    if tracer is not None:
        tracer.phase = "prelude"
    set_active(config)
    assets = common.matrix_assets(SERVICE_SID, SERVICE_SCALE)
    n, nnz = assets.A.shape[0], int(assets.A.nnz)
    del assets
    common.clear_run_caches()
    set_active(None)

    rng = np.random.default_rng(seed)
    bursts = [[VectorJob(sid=SERVICE_SID, scale=SERVICE_SCALE,
                         solver=SERVICE_SOLVER, platform=SERVICE_PLATFORM,
                         rhs=tuple(rng.standard_normal(n).tolist()))
               for _ in range(BURST)]
              for _ in range(max(1, round(seconds / PERIOD_S)))]

    # Set-up: daemon start plus operator attach from the store.  The
    # server thread must be serving before close(): SolveService.close()
    # blocks forever in socketserver's shutdown() if serve_forever never
    # ran.
    if tracer is not None:
        tracer.phase = "setup"
    setup_s = []
    for i in range(WORKLOADS["service-burst"]["setups"]):
        common.clear_run_caches()
        start = cpu_seconds()
        svc = SolveService(port=0, config=config)
        server = threading.Thread(target=svc.serve_forever, daemon=True)
        server.start()
        _, op = common.platform_operator(SERVICE_SID, SERVICE_SCALE,
                                         SERVICE_PLATFORM, SERVICE_SOLVER)
        setup_s.append(cpu_seconds() - start)
        if i + 1 < WORKLOADS["service-burst"]["setups"]:
            stop_service(svc, server)

    # Open loop: burst k is due at t0 + k * PERIOD_S, sent regardless of
    # whether earlier bursts were answered; latency runs from the due time.
    if tracer is not None:
        tracer.phase = "measure"
    done = [None] * (len(bursts) * BURST)
    sent, late = [], []
    t0, cpu0, ticks = time.perf_counter(), cpu_seconds(), host_ticks()
    try:
        for k, burst in enumerate(bursts):
            due = t0 + k * PERIOD_S
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late.append(time.perf_counter() - due)
            for job in burst:
                if tracer is not None:
                    tracer.submitted[id(job)] = time.perf_counter()
                fut = svc.submit_vector(job)
                i = len(sent)
                fut.add_done_callback(
                    lambda _, i=i: done.__setitem__(i, time.perf_counter()))
                sent.append((due, fut))
        responses, errors = [], []
        for due, fut in sent:
            try:
                responses.append(fut.result(timeout=120))
            except Exception as exc:  # counted as a failed request
                responses.append(None)
                errors.append(f"request failed: {exc!r}")
        measured_s = max(t for t in done if t is not None) - t0
        cpu_s, steal = cpu_seconds() - cpu0, steal_frac(ticks)
        if tracer is not None:
            tracer.phase = "done"
        counters = svc.counters.to_dict()

        # Output checks, outside the timed window.
        ok = [r is not None and "error" not in r for r in responses]
        for r in responses:
            if r is not None and "error" not in r and not r["converged"]:
                errors.append(f"request did not converge: {r['breakdown']}")
        criterion = config.effective_criterion
        for job, r in zip(bursts[0], responses[:BURST]):
            if r is None or "error" in r:
                continue
            ref = cg(op, np.asarray(job.rhs, dtype=np.float64),
                     criterion=criterion)
            got = np.asarray(r["x"], dtype=np.float64)
            if got.tobytes() != ref.x.tobytes():
                errors.append("a coalesced response differs from serial cg")
    finally:
        stop_service(svc, server)

    completed = sum(ok)
    latencies = [t - due for t, (due, _), good in zip(done, sent, ok)
                 if good]
    late_max = max(late)
    if late_max > LATE_LIMIT_S:
        errors.append(f"invalid run: the generator sent a burst "
                      f"{late_max:.3f} s late")
    metrics = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "solved_nnz_per_cpu_s": (completed * nnz / cpu_s, completed),
        "completed_frac": (completed / len(sent), len(sent)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    info = {
        "completed_rps": (completed / measured_s, completed),
        "latency_p50_s": (percentile(latencies, 50), len(latencies)),
        "latency_p90_s": (percentile(latencies, 90), len(latencies)),
        "host_steal_frac": (steal, 1),
    }
    sizes = [r["batch"]["size"] for r in responses if r and "batch" in r]
    extra = {
        "loadgen.late_max_s": late_max,
        "service.batch_size_mean": (counters["batch_columns"]
                                    / max(1, counters["batches"])),
        "service.coalesced_share": (sum(s >= 2 for s in sizes)
                                    / max(1, len(sent))),
        "service.matmats_per_request": (counters["batch_matmats"]
                                        / max(1, counters["vector_jobs"])),
        "service.max_queue_depth": counters["max_queue_depth"],
    }
    return {"metrics": metrics, "wall": info, "attempted": len(sent),
            "failed": len(sent) - completed, "errors": errors,
            "setups": len(setup_s), "units": len(bursts),
            "measured_s": measured_s, "extra": extra}


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all-cpus", action="store_true",
                        help="run on every CPU instead of one (the CPU "
                             "time then swings with host load)")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite this suite workload's verdict table "
                             "in reference.json from this run")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no repro package", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if not args.all_cpus:
        # On more than one CPU, Python threads (the suites' thread executor,
        # the service's lockstep gang) hand the GIL between CPUs, and the
        # CPU time that costs swings with load elsewhere on the host.  Pin
        # before any thread starts; every later thread inherits it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "suite-default":
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = (SUITE_DEFAULT_AS_BYTES if hard == resource.RLIM_INFINITY
               else min(SUITE_DEFAULT_AS_BYTES, hard))
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    # The run ledger stamps records with `git rev-parse HEAD`; stop git's
    # repository search at the checkout root.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from spans import Tracer, instrument, layer_metrics, span_cost_s

    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        if args.workload == "service-burst":
            out = service_workload(args.seed, args.seconds, tracer, work)
        else:
            out = suite_workload(args.workload, args.seconds, tracer, work,
                                 args.update_reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"measured {out['measured_s']:.3f} s over {out['units']} "
          f"{'bursts' if args.workload == 'service-burst' else 'passes'}")
    for error in out["errors"][:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if tracer is None:
        metrics = {}
        for entry in spec["end_to_end"]:
            name, unit = entry["name"], entry["unit"]
            value, samples = out["metrics"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<20} {value:>14.6g} {unit:<6} n={samples}")
        # Wall-clock figures, shown but not gated: they swing with the
        # host's steal time (see README.md).
        for name, (value, samples) in out["wall"].items():
            print(f"wall {name:<15} {value:>14.6g}        n={samples}")
    else:
        metrics = layer_metrics(tracer, out, span_cost_s(), spec["per_layer"])
        for name, entry in metrics.items():
            print(f"{name:<34} {entry['value']:>14.6g} {entry['unit']}")
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {path}")
    correct = not out["errors"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
