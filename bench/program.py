"""Program phase of one benchmark run, in a process of its own.

Usage: PYTHONPATH=src python3 program.py SPEC_JSON

``run.py`` writes the inputs and the spec, then starts this script in the
work directory with the checkout's ``src`` on the path, so that peak memory
belongs to the program alone and every path the program sees (and writes
into a trace) is relative. The script
sets the program up the way ``echoagent build-kb`` and ``evaluate`` do,
runs records one after another for the requested time, checks every
answer, and prints one JSON line of raw results.
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracing
from echoagent.config import EngineConfig
from echoagent.evalharness.benchmark import EF_QUESTION
from echoagent.evalharness.dataset import load_dataset
from echoagent.hub.engine import DiagnosticQuery, ReasoningHub
from echoagent.hub.toolkit import build_default_registry
from echoagent.kb.chunking import load_corpus
from echoagent.kb.encoder import HashedBowEncoder
from echoagent.kb.index import KnowledgeBase
from echoagent.kb.summarize import build_all_entries

# Predicted EF must lie this close to the analytic target. The pipeline is
# off by at most about 0.7 points on these 256-512 px spheroids.
EF_TOLERANCE = 1.5

# The shared host's speed drifts by 1.5x to 2x over seconds to
# minutes, for any code. Every set-up and every stretch of a pass is
# therefore bracketed by a fixed pure-Python loop, and the times inside are
# scaled to the host speed at which the loop takes REFERENCE_LOOP_MS. The loop does not touch the
# program, so a change to the program moves scaled times as it moves raw
# ones; raw times are reported too.
LOOP_ITERATIONS = 30_000
REFERENCE_LOOP_MS = 2.0
# Host speed is measured again at least this often (and around each record
# longer than this), because it can change within a pass.
SEGMENT_NS = 100_000_000

CORPUS_DIR = "corpus"
DATASET_DIR = "dataset"
KB_PATH = "kb.json"
TRACE_DIR = "traces"


def _seconds_since(start: int) -> float:
    return (time.perf_counter_ns() - start) / 1e9


def loop_ms() -> float:
    """Best of three timings of the fixed loop, in ms."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter_ns()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i % 7
        best = min(best, (time.perf_counter_ns() - start) / 1e6)
    return best


def timed_at_reference_speed(work):
    """Run ``work()``; returns its result and the factor that scales its raw
    times to the reference host speed."""
    before = loop_ms()
    result = work()
    return result, 2 * REFERENCE_LOOP_MS / (before + loop_ms())


def latency_summary(values_ms: list[float]) -> dict:
    values = sorted(values_ms)
    if not values:
        raise RuntimeError("no record completed in the timed phase")
    p90 = statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]
    return {
        "latency_p50_ms": statistics.median(values),
        "latency_p90_ms": p90,
        "samples": len(values),
        "samples_beyond_p90": sum(1 for v in values if v > p90),
    }


def set_up(config) -> tuple[object, object, list, dict]:
    """One build-kb plus evaluate start-up; returns kb, registry, records, timings."""
    timings = {}
    start = time.perf_counter_ns()
    mark = start
    primitives = load_corpus(CORPUS_DIR, config.max_chunk_chars)
    timings["kb.load_corpus_s"] = _seconds_since(mark)
    mark = time.perf_counter_ns()
    kb = KnowledgeBase(encoder=HashedBowEncoder(config.embedding_dim))
    kb.add_primitives(primitives)
    timings["kb.add_primitives_s"] = _seconds_since(mark)
    mark = time.perf_counter_ns()
    build_all_entries(kb, config.k)
    timings["kb.build_all_entries_s"] = _seconds_since(mark)
    mark = time.perf_counter_ns()
    kb.save(KB_PATH)
    timings["kb.save_s"] = _seconds_since(mark)
    del kb, primitives
    mark = time.perf_counter_ns()
    kb = KnowledgeBase.load(KB_PATH, encoder=HashedBowEncoder(config.embedding_dim))
    timings["kb.load_s"] = _seconds_since(mark)
    registry = build_default_registry(config)
    mark = time.perf_counter_ns()
    records = load_dataset(DATASET_DIR)
    timings["evalharness.load_dataset_s"] = _seconds_since(mark)
    timings["setup_s"] = _seconds_since(start)
    timings["kb.primitives"] = len(kb)
    return kb, registry, records, timings


def _query(record):
    """The query ``run_benchmark`` builds for a record."""
    if record.is_ef:
        return DiagnosticQuery(text=record.question or EF_QUESTION,
                                   study_refs=record.study_refs())
    return DiagnosticQuery(text=record.question or "Assess the study.",
                               study_refs=record.study_refs(), options=record.options)


def _check(conclusion, expected: dict) -> str | None:
    """None when the answer (and EF) match the analytic truth."""
    if conclusion.answer != expected["answer"]:
        return f"answer {conclusion.answer!r} != expected {expected['answer']!r}"
    if "ef_percent" in expected:
        if conclusion.ef_percent is None:
            return "no EF reported"
        error = abs(conclusion.ef_percent - expected["ef_percent"])
        if error > EF_TOLERANCE:
            return (f"EF {conclusion.ef_percent:.3f} off target "
                    f"{expected['ef_percent']:.3f} by {error:.3f}")
    return None


def _record_digest(record_id: str, conclusion, trace_bytes: bytes) -> str:
    payload = {
        "id": record_id,
        "answer": conclusion.answer,
        "posterior": sorted((k, repr(v)) for k, v in conclusion.posterior.items()),
        "ef_percent": repr(conclusion.ef_percent),
        "trace_sha256": hashlib.sha256(trace_bytes).hexdigest(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Phase:
    """One kind of pass (traced or not) and what its records measured.

    Each pass over the dataset gets a fresh registry, as one ``evaluate``
    call does, unless it is handed the one built during set-up.
    """

    def __init__(self, config, kb, records, expected, digests, tracer=None):
        self.config = config
        self.kb = kb
        self.records = records
        self.expected = expected
        self.digests = digests  # record id -> digest of its first run
        self.tracer = tracer
        self.latencies_ns: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.stats = {"graph_checks": 0, "graph_edges": 0, "steps": 0,
                      "subgoal_steps": 0, "trace_bytes": 0}
        self.elapsed_s = 0.0
        self.pass_rates: list[float] = []  # records per second of each whole pass
        self.scaled_pass_rates: list[float] = []  # the same at reference speed
        self.scaled_ms: list[float] = []  # record latencies at reference speed
        self.unwrapped: list[str] = []

    def run_pass(self, registry=None) -> None:
        """One whole pass, cut into segments of at least SEGMENT_NS, each
        bracketed by the fixed loop and scaled to reference speed."""
        loop_before = loop_ms()
        segment_start = time.perf_counter_ns()
        first = len(self.latencies_ns)
        in_segment = 0
        raw_s = scaled_s = 0.0

        def close_segment():
            nonlocal loop_before, segment_start, first, in_segment, raw_s, scaled_s
            seconds = _seconds_since(segment_start)
            loop_after = loop_ms()
            scale = 2 * REFERENCE_LOOP_MS / (loop_before + loop_after)
            raw_s += seconds
            scaled_s += seconds * scale
            self.scaled_ms.extend(ns / 1e6 * scale for ns in self.latencies_ns[first:])
            loop_before = loop_after
            segment_start = time.perf_counter_ns()
            first = len(self.latencies_ns)
            in_segment = 0

        if registry is None:
            registry = build_default_registry(self.config)
        wrappers = tracing.installed(self.tracer) if self.tracer else nullcontext([])
        with wrappers as self.unwrapped:
            for record in self.records:
                self._one(record, registry)
                in_segment += 1
                if time.perf_counter_ns() - segment_start >= SEGMENT_NS:
                    close_segment()
        if in_segment:
            close_segment()
        self.elapsed_s += raw_s
        self.pass_rates.append(len(self.records) / raw_s)
        self.scaled_pass_rates.append(len(self.records) / scaled_s)

    def _one(self, record, registry) -> None:
        trace_path = Path(TRACE_DIR) / f"{record.id}.trace.jsonl"
        query = _query(record)
        hub = ReasoningHub(self.kb, registry, self.config)
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.record = self.attempted
        began = time.perf_counter_ns()
        try:
            conclusion = hub.run(query, trace_path=trace_path)
        except Exception:  # the loop must go on; the failure is counted
            self.failures.append(f"{record.id}: {traceback.format_exc(limit=3)}")
            return
        finally:
            if self.tracer is not None:
                self.tracer.record = None
        self.latencies_ns.append(time.perf_counter_ns() - began)
        trace_bytes = trace_path.read_bytes()
        digest = _record_digest(record.id, conclusion, trace_bytes)
        stats = self.stats
        stats["graph_checks"] += conclusion.graph.checks_run
        stats["graph_edges"] += len(conclusion.graph.edges)
        stats["steps"] += conclusion.executed_steps
        stats["subgoal_steps"] += conclusion.subgoal_steps
        stats["trace_bytes"] += len(trace_bytes)
        problem = _check(conclusion, self.expected[record.id])
        first = self.digests.setdefault(record.id, digest)
        if problem is None and first != digest:
            problem = "outputs differ from this record's first run"
        if problem is not None:
            self.failures.append(f"{record.id}: {problem}")

    @property
    def passed(self) -> int:
        return self.attempted - len(self.failures)


def run_closed_loop(phases: list[Phase], seconds: float, min_records: int,
                    first_registry) -> None:
    """Whole passes, rotating over ``phases``, until ``seconds`` have gone and
    every phase ran ``min_records``. Whole passes keep the mix of inputs the
    same in every run."""
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    registry = first_registry
    while (time.perf_counter_ns() < deadline
           or min(p.attempted for p in phases) < min_records):
        for phase in phases:
            phase.run_pass(registry)
            registry = None


def layer_metrics(tracer: tracing.Tracer, phase: Phase, untraced: Phase,
                  setups: list[dict]) -> dict:
    """Per-layer metrics: means per record attempted, except the set-up ones."""
    n = max(1, phase.attempted)
    ms = 1e-6 / n

    def incl(name):
        return tracer.inclusive_ns[name] * ms

    def calls(name):
        return tracer.calls[name] / n

    out = {}
    for key in ("kb.load_corpus_s", "kb.add_primitives_s", "kb.build_all_entries_s",
                "kb.save_s", "kb.load_s", "evalharness.load_dataset_s"):
        out[key] = statistics.median(s[key] for s in setups)
    out["kb.primitives"] = setups[-1]["kb.primitives"]
    out["kb.embed_ms"] = incl("kb.embed")
    out["kb.all_similarities_ms"] = incl("kb.all_similarities")

    out["hub.resolve_self_ms"] = tracer.self_ns["hub.resolve_repository"] * ms
    out["hub.plan_ms"] = incl("hub.plan_steps")
    out["hub.update_posteriors_ms"] = incl("hub.update_posteriors")
    out["hub.trace_digest_ms"] = incl("hub.digest")
    out["hub.trace_write_ms"] = incl("hub.trace_write")
    out["hub.run_self_ms"] = tracer.self_ns["hub.run"] * ms
    record_ns = tracer.inclusive_ns["hub.run"]
    out["hub.resolve_share"] = (
        tracer.inclusive_ns["hub.resolve_repository"] / record_ns if record_ns else 0.0)
    for key, total in phase.stats.items():
        out[f"hub.{key}"] = total / n

    for tool in tracing.TOOLS:
        out[f"tools.{tool}.calls"] = calls(f"tools.{tool}")
        out[f"tools.{tool}_ms"] = incl(f"tools.{tool}")
    out["tools.invoke_failed"] = sum(tracer.failed_by_status.values()) / n
    out["tools.load_study_calls"] = calls("tools.load_study")
    segments = tracer.calls["tools.segment_structure"]
    out["tools.load_study_per_segment"] = (
        tracer.counts["load_study_in_segment"] / segments if segments else 0.0)
    out["tools.read_pgm_ms"] = incl("tools.read_pgm") + incl("tools.pgm_dimensions")
    out["tools.pgm_bytes_read"] = tracer.counts["pgm_bytes"] / n

    out["quant.long_axis_ms"] = incl("quant.long_axis")
    out["quant.disk_diameters_ms"] = incl("quant.disk_diameters")
    out["quant.biplane_volume_ms"] = incl("quant.biplane_volume")
    out["quant.mask_area_ms"] = incl("quant.mask_area")
    out["quant.chord_samples"] = tracer.counts["chord_samples"] / n

    layered = sum(tracer.layer_self_ns[layer] for layer in tracing.LAYERS)
    for layer in tracing.LAYERS:
        out[f"{layer}.self_ms"] = tracer.layer_self_ns[layer] * ms
        out[f"{layer}.self_share"] = tracer.layer_self_ns[layer] / layered if layered else 0.0
    traced = latency_summary(phase.scaled_ms)["latency_p50_ms"]
    out["trace.latency_p50_ms"] = traced
    out["trace.overhead_ratio"] = traced / latency_summary(untraced.scaled_ms)["latency_p50_ms"]
    out["trace.coverage"] = layered / 1e9 / phase.elapsed_s if phase.elapsed_s else 0.0
    out["trace.records"] = phase.passed
    out["trace.spans_per_record"] = len(tracer.spans) / n
    out["trace.unwrapped_targets"] = len(phase.unwrapped)
    return out


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    config = EngineConfig()
    expected = {e["id"]: e for e in spec["expected"]}

    setups = []
    for _ in range(spec["setup_repeats"]):
        kb = registry = records = None  # let the previous set-up go first
        (kb, registry, records, timings), scale = timed_at_reference_speed(
            lambda: set_up(config))
        timings["scaled_setup_s"] = timings["setup_s"] * scale
        setups.append(timings)
    unknown = sorted({r.id for r in records} ^ set(expected))
    if unknown:
        raise SystemExit(f"dataset and expected answers disagree on {unknown}")

    digests: dict[str, str] = {}
    untraced = Phase(config, kb, records, expected, digests)
    phases = [untraced]
    if spec["trace"]:
        # Traced and untraced passes alternate, so both see the same machine.
        tracer = tracing.Tracer()
        phases.append(Phase(config, kb, records, expected, digests, tracer))
    run_closed_loop(phases, spec["seconds"], spec["min_records"], registry)

    result = {"setups": setups, "unwrapped_targets": []}
    if spec["trace"]:
        traced = phases[1]
        result["layers"] = layer_metrics(tracer, traced, untraced, setups)
        result["failed_by_status"] = dict(tracer.failed_by_status)
        result["unwrapped_targets"] = traced.unwrapped
        tracer.write_spans(Path(spec["spans_path"]))

    first_pass = [digests[r.id] for r in records if r.id in digests]
    result.update({
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(len(p.failures) for p in phases),
        "failures": [f for p in phases for f in p.failures][:5],
        "records_per_s": statistics.median(untraced.scaled_pass_rates),
        "raw_records_per_s": statistics.median(untraced.pass_rates),
        "passes": len(untraced.pass_rates),
        "latency": latency_summary(untraced.scaled_ms),
        "raw_latency": latency_summary([ns / 1e6 for ns in untraced.latencies_ns]),
        "outputs_digest": hashlib.sha256("".join(first_pass).encode()).hexdigest(),
        "digest_records": len(first_pass),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
