"""echoagent benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload ef_grading --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The script writes seeded inputs under
``.bench_work/``, starts ``program.py`` in a process of its own to set the
program up and run records for ``--seconds``, checks every answer, and
prints a metric table, a ``report`` line (environment, outputs digest,
failures) and, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ones. ``--workload all`` runs every workload.
See ``bench/README.md`` for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
RUN_LIMIT_S = 175.0
# Enough latency samples that ten lie beyond the 90th percentile.
MIN_RECORDS = 100

# name -> (ef canvas sizes, EF records per size, MCQ records per class,
# synthetic documents, set-ups per run)
WORKLOADS = {
    "ef_grading": (inputs.EF_CANVAS_PX, 2, 0, 0, 21),
    "mcq_studies": ((), 0, 4, 0, 21),
    "mcq_large_kb": ((), 0, 4, 2500, 3),
}
# One BLAS thread: the loop has one client, and idle BLAS threads that spin
# on the second core add noise. An explicit setting in the environment wins.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SMALL = {
    "ef_grading": ((256, 320), 1, 0, 0, 1),
    "mcq_studies": ((), 0, 1, 0, 1),
    "mcq_large_kb": ((), 0, 1, 50, 1),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "kb.load_corpus_s": "s",
    "kb.add_primitives_s": "s",
    "kb.build_all_entries_s": "s",
    "kb.save_s": "s",
    "kb.load_s": "s",
    "kb.primitives": "count",
    "kb.embed_ms": "ms",
    "kb.all_similarities_ms": "ms",
    "kb.self_ms": "ms",
    "kb.self_share": "ratio",
    "hub.resolve_self_ms": "ms",
    "hub.plan_ms": "ms",
    "hub.update_posteriors_ms": "ms",
    "hub.graph_checks": "count",
    "hub.graph_edges": "count",
    "hub.steps": "count",
    "hub.subgoal_steps": "count",
    "hub.trace_digest_ms": "ms",
    "hub.trace_write_ms": "ms",
    "hub.trace_bytes": "B",
    "hub.run_self_ms": "ms",
    "hub.resolve_share": "ratio",
    "hub.self_ms": "ms",
    "hub.self_share": "ratio",
    **{f"tools.{tool}.calls": "count" for tool in tracing.TOOLS},
    **{f"tools.{tool}_ms": "ms" for tool in tracing.TOOLS},
    "tools.invoke_failed": "count",
    "tools.load_study_calls": "count",
    "tools.load_study_per_segment": "ratio",
    "tools.read_pgm_ms": "ms",
    "tools.pgm_bytes_read": "B",
    "tools.self_ms": "ms",
    "tools.self_share": "ratio",
    "quant.long_axis_ms": "ms",
    "quant.disk_diameters_ms": "ms",
    "quant.biplane_volume_ms": "ms",
    "quant.mask_area_ms": "ms",
    "quant.chord_samples": "count",
    "quant.self_ms": "ms",
    "quant.self_share": "ratio",
    "evalharness.load_dataset_s": "s",
    "trace.latency_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.records": "count",
    "trace.spans_per_record": "count",
    "trace.unwrapped_targets": "count",
}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


def _program_sha256() -> str:
    """Digest of the program's sources, which names the version without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "echoagent").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, sizes: dict) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k, v) for k, v in BLAS_THREADS.items()},
        "git_sha": _git_sha(),
        "program_sha256": _program_sha256(),
        "seed": seed,
        "sizes": sizes,
    }


def write_inputs(work: Path, workload: str, seed: int, small: bool) -> tuple[list, dict]:
    """Corpus and dataset for one workload; returns expected answers and sizes."""
    from echoagent.anatomy import match_text
    from echoagent.fixtures.corpus import write_corpus

    sizes_px, per_size, per_class, docs, repeats = (SMALL if small else WORKLOADS)[workload]
    rng = np.random.default_rng(seed)
    write_corpus(work / "corpus")
    synthetic = inputs.write_synthetic_corpus(work / "corpus", rng, docs, match_text)
    if per_size:
        expected = inputs.write_ef_dataset(work / "dataset", rng, per_size, sizes_px)
    else:
        expected = inputs.write_mcq_dataset(work / "dataset", rng, per_class)
    sizes = {
        "records_per_pass": len(expected),
        "canvas_px": sorted({e["canvas_px"] for e in expected}),
        "synthetic_primitives": synthetic,
        "setup_repeats": repeats,
    }
    return expected, sizes


def flip_first_truth(expected: list[dict]) -> None:
    """Give the first record a wrong expected answer (checks the check)."""
    first = expected[0]
    if "ef_percent" in first:
        first["answer"] = "Normal" if first["answer"] != "Normal" else "ConsiderablyReduced"
        return
    kind = next(k for k in inputs.MCQ_KINDS
                if first["answer"] in (k.normal_option, k.abnormal_option))
    first["answer"] = (kind.abnormal_option if first["answer"] == kind.normal_option
                       else kind.normal_option)


def run_workload(args, workload: str) -> dict:
    started = time.monotonic()
    work = WORK_ROOT / f"{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        expected, sizes = write_inputs(work, workload, args.seed, args.small)
        if args.flip_truth:
            flip_first_truth(expected)
        spec = {
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "setup_repeats": sizes["setup_repeats"],
            # the end-to-end p90 needs the samples; traced runs and the
            # self-test do not
            "min_records": 0 if args.small or args.trace else MIN_RECORDS,
            "expected": expected,
            "spans_path": str(OUT_DIR / f"{workload}.spans.jsonl"),
        }
        (work / "spec.json").write_text(json.dumps(spec))
        budget = RUN_LIMIT_S - (time.monotonic() - started)
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "program.py"), "spec.json"],
            cwd=work, capture_output=True, text=True, timeout=max(1.0, budget),
            env={**BLAS_THREADS, **os.environ, "PYTHONPATH": str(SRC)},
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"program phase exited {child.returncode}:\n{child.stderr}")
        raw = json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    return summarize(workload, args, raw, sizes)


def summarize(workload: str, args, raw: dict, sizes: dict) -> dict:
    latency = raw["latency"]
    if args.trace:
        metrics = {name: raw["layers"][name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(s["scaled_setup_s"] for s in raw["setups"]),
            "records_per_s": raw["records_per_s"],
            "latency_p50_ms": latency["latency_p50_ms"],
            "latency_p90_ms": latency["latency_p90_ms"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    report = {
        "workload": workload,
        "trace": args.trace,
        "outputs_digest": raw["outputs_digest"],
        "digest_records": raw["digest_records"],
        "failed_ratio": raw["failed"] / raw["attempted"],
        "raw": {
            "setup_s": statistics.median(s["setup_s"] for s in raw["setups"]),
            "records_per_s": raw["raw_records_per_s"],
            "latency_p50_ms": raw["raw_latency"]["latency_p50_ms"],
            "latency_p90_ms": raw["raw_latency"]["latency_p90_ms"],
        },
        "latency_samples": latency["samples"],
        "samples_beyond_p90": latency["samples_beyond_p90"],
        "failures": raw["failures"],
        "failed_by_status": raw.get("failed_by_status", {}),
        "unwrapped_targets": raw["unwrapped_targets"],
        "environment": environment(args.seed, sizes),
    }
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'failed_ratio':34s} {report['failed_ratio']:14.6g} ratio")
    print("report " + json.dumps(report, sort_keys=True))
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, one set-up, no minimum record count "
                             "(for the self-test)")
    parser.add_argument("--flip-truth", action="store_true",
                        help="expect a wrong answer for the first record (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "echoagent" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(args, name) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
