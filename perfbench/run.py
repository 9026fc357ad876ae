"""Repository benchmark: end-to-end and per-layer metrics for the E-join engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ejoin-vectors --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

One run generates its inputs from ``--seed``, computes the correctness
reference by serial execution on a fresh ``Engine``, times set-up
(median of several), then runs the workload's closed loop for
``--seconds``.

* ``--trace 0`` measures with no wrappers installed and reports the
  ``end_to_end`` metrics of ``BENCHMARK.json``.
* ``--trace 1`` runs half the time untraced, then installs the timing
  wrappers of :mod:`tracing` for the other half and reports the
  ``per_layer`` metrics, the tracing overhead, and self times that add
  up to the traced wall time.  Spans are written to
  ``perfbench/results/<workload>.spans.jsonl``.
* ``--smoke`` runs every workload at toy size, traced and untraced, in
  child processes and checks that every metric of ``BENCHMARK.json`` is
  emitted with its unit.

The last line of standard output is the JSON result.  Inherited
``REPRO_*``, ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` are recorded
and removed before numpy or the program is imported; the only setting a
workload applies is ``ejoin-int8``'s ``default_precision="int8"``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_RUNS = 5  # setup_s is the median of this many set-ups


def scrub_env() -> dict[str, str]:
    names = [
        k for k in os.environ
        if k.startswith("REPRO_") or k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    ]
    return {k: os.environ.pop(k) for k in sorted(names)}


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------
def end_to_end(wl, ops, wall_s: float, setups: list[float], peak_rss_mb: float) -> dict:
    latencies = [op.latency_s for op in ops]
    busy = sum(latencies) if wl.lone else wall_s
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "rows_per_s": metric(sum(op.rows for op in ops) / busy, "1/s"),
        "qps": metric(len(ops) / busy, "1/s"),
        "p50_ms": metric(percentile(latencies, 0.5) * 1e3, "ms"),
        "p90_ms": metric(percentile(latencies, 0.9) * 1e3, "ms"),
        "ok_frac": metric(sum(op.ok for op in ops) / len(ops), "ratio"),
        "recall": metric(statistics.fmean(op.recall for op in ops), "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# Traced run: wrappers and per-layer metrics
# ---------------------------------------------------------------------------
#: Strategy names reported as ``algebra.plans.<name>``; anything else
#: counts under ``other``.
PLANS = (
    "tensor", "tensor-int8", "tensor-pq", "tensor-fp16", "index",
    "eselect-scan", "eselect-quant", "coalesced", "other",
)

#: Span names whose attributed self time is reported as ``<name>.self_s``
#: (``algebra.execute`` as ``algebra.execute_self_s``).
SELF_SPANS = (
    "embedding", "algebra.optimize", "algebra.execute", "core.tensor_join",
    "core.quantized_join", "core.rescore", "engine", "vector.topk",
    "vector.stable_dot", "vector.int8", "vector.normalize", "service",
    "service.admission", "service.coalescer", "relational.materialize",
    "relational.filter",
)


def plan_name(strategy: str) -> str:
    name = strategy.replace("/", "-")
    if name.startswith("eselect-") and name != "eselect-scan":
        name = "eselect-quant"
    return name if name in PLANS else "other"


@dataclass
class Observed:
    """What the traced run's hooks collect besides spans."""

    plans: Counter = field(default_factory=Counter)
    fallbacks: int = 0
    joins: list = field(default_factory=list)
    #: Engine executors seen running, keyed by their shared stats object.
    executors: dict = field(default_factory=dict)

    def add_executor(self, engine) -> None:
        self.executors.setdefault(id(engine.stats), engine)


def install(tracer, seen: Observed) -> None:
    """Wrap each layer's public entry points (see ``SELF_SPANS``)."""
    from importlib import import_module

    from repro.algebra.optimizer import Optimizer
    from repro.embedding.base import EmbeddingModel
    from repro.engine import ExecutionEngine
    from repro.relational.table import Table
    from repro.service.admission import AdmissionController
    from repro.service.coalescer import CoalescingScheduler
    from repro.service.service import QueryService
    from repro.vector.quant.scalar import Int8Quantizer
    from repro.vector.topk import StreamingTopK

    # Modules by name: ``repro.core`` re-exports functions that shadow
    # some of its submodule names.
    physical_planner = import_module("repro.algebra.physical_planner")
    eselect = import_module("repro.core.eselect")
    quantized_join = import_module("repro.core.quantized_join")
    result = import_module("repro.core.result")
    tensor_join = import_module("repro.core.tensor_join")
    expressions = import_module("repro.relational.expressions")
    kernels = import_module("repro.vector.kernels")
    norms = import_module("repro.vector.norms")

    def on_execute(_args, kwargs) -> None:
        report = kwargs.get("report")
        if report is not None:
            seen.plans.update(plan_name(s) for s in report.strategies)
            seen.joins.extend(report.join_stats)
            seen.fallbacks += len(report.fallbacks)

    tracer.hooks["algebra.execute"].append(on_execute)
    tracer.hooks["engine"].append(lambda args, _kwargs: seen.add_executor(args[0]))

    tracer.wrap_method(EmbeddingModel, "embed_batch", "embedding")
    tracer.wrap_method(Optimizer, "optimize", "algebra.optimize")
    tracer.wrap_function(physical_planner.execute, "algebra.execute")
    tracer.wrap_function(tensor_join.tensor_join, "core.tensor_join")
    tracer.wrap_function(quantized_join.quantized_tensor_join, "core.quantized_join")
    tracer.wrap_function(eselect.exact_topk_select, "core.rescore")
    tracer.wrap_function(eselect.exact_threshold_select, "core.rescore")
    tracer.wrap_engine_run(ExecutionEngine)
    # Elements per call, from argument shapes (the paper's Fig. 11/12
    # ns-per-element method): scores merged, and multiply-adds scored.
    tracer.wrap_method(
        StreamingTopK, "update_block", "vector.topk",
        elements=lambda a, k: a[1].size,
    )
    tracer.wrap_function(
        kernels.stable_dot_scores, "vector.stable_dot",
        elements=lambda a, k: a[0].size,
    )
    tracer.wrap_method(
        Int8Quantizer, "scores_block", "vector.int8",
        elements=lambda a, k: a[1][0].shape[0] * a[2].size,
    )
    tracer.wrap_function(norms.normalize_rows, "vector.normalize")
    tracer.wrap_method(QueryService, "submit", "service")
    tracer.wrap_method(AdmissionController, "acquire", "service.admission")
    tracer.wrap_method(CoalescingScheduler, "submit", "service.coalescer")
    tracer.wrap_method(result.JoinResult, "materialize", "relational.materialize")
    tracer.wrap_method(Table, "mask", "relational.filter")
    tracer.wrap_function(expressions.validate_boolean, "relational.filter")


def counters(executors: dict, service) -> dict:
    """Cumulative engine, retry and service counters of the given objects."""
    out: dict = defaultdict(float)
    for engine in executors.values():
        snap = engine.stats.snapshot()
        out["engine.morsels"] += snap["morsels_dispatched"]
        out["engine.steals"] += snap["steals"]
        out["engine.retries"] += snap["retries"]
        out["reliability.retries"] += engine.retry_policy.stats.snapshot()["retries"]
    if service is not None:
        snap = service.stats_snapshot()
        out["plan.hits"] = snap["plan_cache"]["hits"]
        out["plan.misses"] = snap["plan_cache"]["misses"]
        rc = snap["result_cache"]
        out["result.hits"] = rc["exact_hits"] + rc["near_hits"]
        out["result.misses"] = rc["misses"]
        out["singleflight"] = snap["service"]["singleflight_hits"]
        out["coalesced"] = snap["service"]["coalesced"]
        co = snap.get("coalescer", {})
        out["groups"] = co.get("groups", 0)
        out["coalesced_queries"] = co.get("coalesced_queries", 0)
    return out


def coalescer_split(traces) -> tuple[float, float]:
    """(wait, scan) seconds from the service's own ``coalesce.*`` spans.

    ``wait`` is each query's time inside the coalescer minus the shared
    scan it rode in; ``scan`` counts each shared scan once, from its
    leader's trace.
    """
    wait = scan = 0.0
    for trace in traces:
        spans = trace.to_dict()["spans"]
        waits = [s for s in spans if s["name"] == "coalesce.wait"]
        scans = [s["wall_s"] for s in spans if s["name"] == "coalesce.scan"]
        wait += sum(s["wall_s"] for s in waits) - sum(scans)
        if any(s["attrs"].get("leader") for s in waits):
            scan += sum(scans)
    return max(wait, 0.0), scan


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, window, seen: Observed, before, after, traces, ops, base_ops) -> dict:
    """Per-layer metrics of the traced half.

    Times and counts are per traced query, so a faster layer lowers its
    number even though the closed loop then completes more queries.
    """
    from tracing import ROOT, attribute

    lo, hi = window
    busy: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    elems: dict = defaultdict(int)
    for _sid, name, start, end, _parent, _qid, n in tracer.spans:
        if start >= lo and end <= hi:
            busy[name] += end - start
            calls[name] += 1
            elems[name] += n
    shares = attribute(tracer.spans, window)
    delta = defaultdict(float, {k: after[k] - before.get(k, 0.0) for k in after})
    plans = seen.plans + Counter(coalesced=delta["coalesced"])
    wait_s, scan_s = coalescer_split(traces)
    evals = sum(j.similarity_evaluations for j in seen.joins)
    pairs = sum(j.pairs_emitted for j in seen.joins)
    q = len(ops)

    def t(value: float) -> dict:
        return metric(value / q, "s")

    def c(value: float) -> dict:
        return metric(value / q, "count")

    def r(num: float, den: float) -> dict:
        return metric(ratio(num, den), "ratio")

    def ns(name: str) -> dict:
        return metric(ratio(busy[name] * 1e9, elems[name]), "ns")

    out = {
        "embedding.calls": c(calls["embedding"]),
        "embedding.busy_s": t(busy["embedding"]),
        "algebra.optimize_s": t(busy["algebra.optimize"]),
        "core.evals_per_result": r(evals, pairs),
        "core.rescore_s": t(busy["core.rescore"]),
        "engine.busy_s": t(busy["engine"]),
        "engine.morsels": c(delta["engine.morsels"]),
        "engine.steals": c(delta["engine.steals"]),
        "engine.retries": c(delta["engine.retries"]),
        "vector.topk.ns_per_elem": ns("vector.topk"),
        "vector.stable_dot.ns_per_elem": ns("vector.stable_dot"),
        "vector.int8.ns_per_elem": ns("vector.int8"),
        "vector.normalize_s": t(busy["vector.normalize"]),
        "service.admission.wait_s": t(busy["service.admission"]),
        "service.plan_cache.hit_ratio": r(
            delta["plan.hits"], delta["plan.hits"] + delta["plan.misses"]
        ),
        "service.result_cache.hit_ratio": r(
            delta["result.hits"], delta["result.hits"] + delta["result.misses"]
        ),
        "service.singleflight_hits": c(delta["singleflight"]),
        "service.coalescer.batch_mean": r(delta["coalesced_queries"], delta["groups"]),
        "service.coalescer.wait_s": t(wait_s),
        "service.coalescer.scan_s": t(scan_s),
        "relational.materialize_s": t(busy["relational.materialize"]),
        "relational.filter_s": t(busy["relational.filter"]),
        "reliability.fallbacks": c(seen.fallbacks),
        "reliability.retries": c(delta["reliability.retries"]),
    }
    for plan in PLANS:
        out[f"algebra.plans.{plan}"] = c(plans[plan])
    for name in SELF_SPANS:
        key = "algebra.execute_self_s" if name == "algebra.execute" else f"{name}.self_s"
        out[key] = t(shares.get(name, 0.0))
    out["trace.wall_s"] = t(sum(shares.values()))
    out["trace.unattributed_s"] = t(shares.get(ROOT, 0.0))
    traced = statistics.fmean(op.latency_s for op in ops)
    untraced = statistics.fmean(op.latency_s for op in base_ops)
    out["trace.overhead"] = r(traced, untraced)
    return out


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def traced_run(wl, seconds: float, name: str) -> tuple[list, dict]:
    """Half the time untraced, half traced; returns all ops and per-layer metrics."""
    import repro
    from tracing import Tracer

    base_ops = wl.measure(seconds / 2)
    wl.verify(base_ops)
    seen = Observed()
    if wl.engine is not None:
        seen.add_executor(wl.engine.executor)
    before = counters(seen.executors, wl.service)
    tracer = Tracer()
    install(tracer, seen)
    if wl.service is not None:
        # The service's own spans give the coalescer's wait/scan split.
        untraced_obs = wl.service.tracer
        wl.service.tracer = repro.Tracer(sample_rate=1.0, ring_size=1 << 20)
    try:
        start = time.perf_counter()
        ops = wl.measure(seconds / 2, tracer)
        window = (start, time.perf_counter())
    finally:
        tracer.uninstall()
    traces = []
    if wl.service is not None:
        traces = wl.service.recent_traces()
        wl.service.tracer = untraced_obs
    after = counters(seen.executors, wl.service)
    wl.verify(ops)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{name}.spans.jsonl")
    metrics = per_layer(tracer, window, seen, before, after, traces, ops, base_ops)
    return base_ops + ops, metrics


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
def run(args, scrubbed: dict) -> dict:
    from host import fingerprint
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.toy)
    wl.reference()
    setups = [timed(wl.setup)]
    report: dict = {"workload": args.workload, "host": fingerprint(ROOT, args.seed, scrubbed)}
    try:
        if args.trace:
            ops, metrics = traced_run(wl, args.seconds, args.workload)
        else:
            start = time.perf_counter()
            ops = wl.measure(args.seconds)
            wall = time.perf_counter() - start
            wl.verify(ops)
            # Peak RSS covers one set-up and the run; the repeated set-ups
            # below would only add allocator fragmentation to it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for _ in range(SETUP_RUNS - 1):
                wl.close()
                setups.append(timed(wl.setup))
            metrics = end_to_end(wl, ops, wall, setups, peak_rss_mb)
    finally:
        wl.close()

    failed = sum(not op.ok for op in ops)
    report["summary"] = {
        "ops": len(ops),
        "failed": failed,
        "fail_frac": failed / len(ops),
        "setup_runs_s": setups,
    }
    report["result"] = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return report


# ---------------------------------------------------------------------------
# Smoke mode: the benchmark's own test
# ---------------------------------------------------------------------------
def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: incorrect result {result}")
            got = result["metrics"]
            for m in spec[group]:
                if m["name"] not in got:
                    problems.append(f"{label}: missing {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got[m['name']]['unit']}")
            extra = set(got) - {m["name"] for m in spec[group]}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"smoke {label}: {len(got)} metrics", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy input sizes")
    parser.add_argument("--smoke", action="store_true", help="run the self-test")
    args = parser.parse_args(argv)

    scrubbed = scrub_env()
    # Measure this checkout's source, never an installed copy.
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    report = run(args, scrubbed)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    print(json.dumps({"host": report["host"], "summary": report["summary"]}))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
