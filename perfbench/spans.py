"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public entry points and the class methods below them from
the outside (no file under ``src/`` records spans).  Each call becomes one
span ``(id, name, start, end, parent, request, phase)``; spans stay in a
list until :meth:`Tracer.write` saves them at the end of the run.

A span's parent is the innermost open span of the same thread, so a span's
children never overlap one another and its *self time* is its duration
minus the summed durations of its children.  ``request`` is the run-request
key (suites) or vector-batch ordinal (service) the span's thread was
serving; ``phase`` is ``"setup"`` or ``"measure"``.
"""

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.phase = "setup"
        self.busy = defaultdict(float)   # run-request key -> seconds busy
        self.submitted = {}              # id(VectorJob) -> submit time
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name, value=1.0):
        with self._lock:
            self.counters[f"{self.phase}:{name}"] += value

    def wrap(self, owner, attr, name, note=None, request=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``note(args, result, start, end)`` runs after the span closes (also
        when the call raised, with ``result=None``) to record counters
        outside the timed interval.  ``request(args)`` names the request the
        call serves; spans opened beneath it in the same thread inherit it.
        """
        raw = owner.__dict__.get(attr, None) if isinstance(owner, type) else None
        orig = getattr(owner, attr)
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.request = None
            prev_request = local.request
            if request is not None:
                local.request = request(args)
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent,
                              local.request, self.phase))
                local.request = prev_request
                if note is not None:
                    note(args, result, start, end)

        if isinstance(raw, (staticmethod, classmethod)):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)

    def summary(self, phase):
        """Per span name: ``(calls, total_s, self_s)`` over one phase."""
        child_s = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                child_s[span[4]] += span[3] - span[2]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, name, start, end, _, _, span_phase in self.spans:
            if span_phase != phase:
                continue
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_s.get(span_id, 0.0)
        return out

    def write(self, path):
        """Save every span as one JSON list per line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def span_cost_s(n=20000):
    """Measured cost of one traced call over an untraced one."""
    class Probe:
        @staticmethod
        def call():
            return None

    plain = Probe.call
    t = time.perf_counter()
    for _ in range(n):
        plain()
    base = time.perf_counter() - t
    tracer = Tracer()
    tracer.wrap(Probe, "call", "probe")
    traced = Probe.call
    t = time.perf_counter()
    for _ in range(n):
        traced()
    return max(0.0, (time.perf_counter() - t - base) / n)


def _entry_bytes(path):
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def instrument(tracer):
    """Wrap the library's layer boundaries with spans and counters."""
    from repro.api.registry import PLATFORM_REGISTRY
    from repro.experiments import common, store
    from repro.experiments.ledger import RunLedger
    from repro.formats.refloat import VectorConverterPlan
    from repro.operators import feinberg_op
    from repro.operators.feinberg_op import FeinbergOperator
    from repro.operators.refloat_op import ReFloatOperator
    from repro.service import daemon
    from repro.solvers.base import MatrixOperator
    from repro.sparse.blocked import BlockedMatrix
    from repro.sparse.bsr import BSRBlocks
    from repro.sparse.gallery.suite import MatrixSpec

    def bsr_note(args, result, start, end):
        # Sizes of the arrays from_partition allocates, known from its
        # arguments even when the allocation itself fails.
        A, b, block_grid, _, block_keys, _ = args[:6]
        blocks = int(block_keys.shape[0])
        cells = blocks << 2 * b  # one (2^b x 2^b) dense tile per block
        tracer.count("bsr_bytes",
                     8 * (cells + block_grid[0] + 1 + blocks + 2 * A.nnz))
        tracer.count("bsr_nnz", A.nnz)
        tracer.count("bsr_cells", cells)

    def save_note(args, result, start, end):
        if result is not None:
            tracer.count("store_bytes", _entry_bytes(result))

    def refloat_cols(args, result, start, end):
        tracer.count("refloat_cols", args[1].shape[1] if args[1].ndim == 2 else 1)

    def run_matrix_note(args, result, start, end):
        if result is None:
            return
        for name, res in result.results.items():
            if PLATFORM_REGISTRY.get(name).results_from is not None:
                continue  # reused numerics, no solve of its own
            tracer.count("iterations", res.iterations)
            tracer.count("matvecs", res.matvecs)
            if not res.converged:
                tracer.count("matvecs_nc", res.matvecs)

    def run_request_note(args, result, start, end):
        with tracer._lock:
            tracer.busy[args[0].key()] += end - start

    def batch_note(args, result, start, end):
        for job in args[2]:
            submitted = tracer.submitted.get(id(job))
            if submitted is not None:
                tracer.count("service_queue_wait_s", start - submitted)

    batches = itertools.count(1)
    wrap = tracer.wrap
    wrap(MatrixSpec, "matrix", "sparse.generate")
    wrap(BlockedMatrix, "__init__", "sparse.partition")
    wrap(BSRBlocks, "from_partition", "sparse.bsr_build", note=bsr_note)
    wrap(BlockedMatrix, "quantize", "formats.matrix_quantize")
    wrap(VectorConverterPlan, "convert", "formats.refloat.convert")
    wrap(VectorConverterPlan, "convert_batch", "formats.refloat.convert")
    wrap(feinberg_op, "quantize_vector_feinberg", "formats.feinberg.convert")
    for cls, platform in ((MatrixOperator, "gpu"),
                          (FeinbergOperator, "feinberg"),
                          (ReFloatOperator, "refloat")):
        note = refloat_cols if platform == "refloat" else None
        wrap(cls, "matvec", f"operators.{platform}.apply", note=note)
        wrap(cls, "matmat", f"operators.{platform}.apply", note=note)
    wrap(common, "run_matrix", "solvers.run_matrix", note=run_matrix_note)
    wrap(common, "run_request", "experiments.run_request",
         note=run_request_note, request=lambda args: args[0].key())
    wrap(common, "matrix_assets", "experiments.matrix_assets")
    wrap(store, "save_entry", "experiments.store.save", note=save_note)
    wrap(store, "load_entry", "experiments.store.load")
    wrap(RunLedger, "append", "experiments.ledger.append")
    wrap(daemon, "solve_lockstep", "solvers.lockstep")
    wrap(daemon.SolveService, "_run_vector_batch", "service.vector_batch",
         note=batch_note, request=lambda args: f"batch-{next(batches)}")


def layer_metrics(tracer, out, span_cost, listed):
    """The per-layer metrics of one traced run, for each ``listed`` entry
    (the ``per_layer`` list of ``BENCHMARK.json``).

    Set-up layers are reported per set-up (one cold build of every asset,
    or one daemon start and attach); measured layers per unit of measured
    work (one suite pass of both solvers, or one service burst).
    """
    setup, measure = tracer.summary("setup"), tracer.summary("measure")
    counters = tracer.counters
    per_setup, per_unit = 1.0 / out["setups"], 1.0 / out["units"]
    none = (0, 0.0, 0.0)

    def timed(summary, name, scale, column=1):
        return summary.get(name, none)[column] * scale

    values = {
        "sparse.generate_s": timed(setup, "sparse.generate", per_setup),
        "sparse.partition_s": timed(setup, "sparse.partition", per_setup),
        "sparse.bsr_build_s": timed(setup, "sparse.bsr_build", per_setup),
        "sparse.bsr_bytes": counters["setup:bsr_bytes"] * per_setup,
        "sparse.block_fill": (counters["setup:bsr_nnz"]
                              / counters["setup:bsr_cells"]
                              if counters["setup:bsr_cells"] else 0.0),
        "formats.matrix_quantize_s": timed(setup, "formats.matrix_quantize",
                                           per_setup),
        "experiments.assets.build_s": timed(
            setup, "experiments.matrix_assets", per_setup),
        "experiments.store.save_s": timed(setup, "experiments.store.save",
                                          per_setup),
        "experiments.store.bytes_written": (counters["setup:store_bytes"]
                                            * per_setup),
        "experiments.store.load_s": timed(setup, "experiments.store.load",
                                          per_setup),
    }
    for fmt in ("refloat", "feinberg"):
        name = f"formats.{fmt}.convert"
        values[f"{name}_s"] = timed(measure, name, per_unit)
        values[f"{name}_calls"] = timed(measure, name, per_unit, column=0)
    for platform in ("gpu", "feinberg", "refloat"):
        calls, total, own = measure.get(f"operators.{platform}.apply", none)
        values[f"operators.{platform}.apply_s"] = total * per_unit
        values[f"operators.{platform}.applies"] = calls * per_unit
        values[f"operators.{platform}.ns_per_apply"] = (
            total / calls * 1e9 if calls else 0.0)
        values[f"operators.{platform}.contract_s"] = own * per_unit
    refloat_calls = measure.get("operators.refloat.apply", none)[0]
    values["operators.refloat.cols_per_apply"] = (
        counters["measure:refloat_cols"] / refloat_calls
        if refloat_calls else 0.0)
    busy = timed(measure, "experiments.run_request", 1.0)
    values.update({
        "solvers.self_s": timed(measure, "solvers.run_matrix", per_unit,
                                column=2),
        "solvers.iterations": counters["measure:iterations"] * per_unit,
        "solvers.matvecs": counters["measure:matvecs"] * per_unit,
        "solvers.matvecs_nc": counters["measure:matvecs_nc"] * per_unit,
        "solvers.lockstep.s": timed(measure, "solvers.lockstep", per_unit),
        "solvers.lockstep.calls": timed(measure, "solvers.lockstep",
                                        per_unit, column=0),
        "experiments.ledger.append_s": timed(
            measure, "experiments.ledger.append", per_unit),
        "experiments.run_request.busy_s": busy * per_unit,
        "experiments.concurrency": busy / out["measured_s"],
        "service.queue_wait_s": (counters["measure:service_queue_wait_s"]
                                 / out["attempted"]),
        "trace.overhead_est_frac": (
            sum(1 for s in tracer.spans if s[6] == "measure") * span_cost
            / out["measured_s"]),
    })
    # Layers a workload never reaches read 0: the service and the load
    # generator on the suites, the run scheduler on the service.
    values.update(dict.fromkeys(
        ("service.batch_size_mean", "service.coalesced_share",
         "service.matmats_per_request", "service.max_queue_depth",
         "loadgen.late_max_s", "api.scheduler.queue_wait_s",
         "api.scheduler.max_inflight"), 0.0))
    values.update(out["extra"])
    return {entry["name"]: {"value": float(values[entry["name"]]),
                            "unit": entry["unit"]}
            for entry in listed}
