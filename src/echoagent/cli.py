"""Command-line interface.

Subcommands: build-kb, query-kb, gen-fixtures, run-study, evaluate, tools.
Exit codes: 0 success, 1 I/O failure, 2 query resolution failure,
3 contract/config violation.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import anatomy
from .config import EngineConfig
from .errors import (
    ConfigError,
    ContractError,
    DatasetError,
    DomainError,
    EchoAgentError,
    EncoderError,
    FixtureError,
    GeometryError,
    GraphError,
    IndexLoadError,
    IngestError,
    MetricError,
    PgmFormatError,
    PlanningError,
    RegistrationError,
    ResolutionError,
    TaxonomyError,
    TransportError,
    VolumeError,
)
from .hub.engine import DiagnosticQuery, ReasoningHub
from .hub.toolkit import build_default_registry
from .kb.chunking import load_corpus
from .kb.encoder import HashedBowEncoder, HttpEncoder
from .kb.index import KnowledgeBase
from .kb.summarize import HttpSummarizer, build_all_entries

EXIT_OK = 0
EXIT_IO = 1
EXIT_RESOLUTION = 2
EXIT_CONTRACT = 3

_IO_ERRORS = (
    IngestError, DatasetError, IndexLoadError, FixtureError, PgmFormatError,
    TransportError, OSError,
)
_CONTRACT_ERRORS = (
    ContractError, ConfigError, TaxonomyError, RegistrationError, PlanningError,
    MetricError, EncoderError, GraphError, DomainError, GeometryError, VolumeError,
)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, ResolutionError):
        return EXIT_RESOLUTION
    if isinstance(exc, _CONTRACT_ERRORS):
        return EXIT_CONTRACT
    if isinstance(exc, _IO_ERRORS):
        return EXIT_IO
    return EXIT_IO


def _build_encoder(config: EngineConfig):
    if config.encoder_url:
        return HttpEncoder(
            config.encoder_url, config.embedding_dim, config.http_timeout_s,
            config.http_retries, config.http_backoff_s,
        )
    return HashedBowEncoder(config.embedding_dim)


def _load_kb(path: str, config: EngineConfig) -> KnowledgeBase:
    encoder = _build_encoder(config)
    return KnowledgeBase.load(path, encoder=encoder)


def cmd_build_kb(args, config: EngineConfig) -> int:
    corpus_dir = Path(args.corpus_dir)
    if not corpus_dir.is_dir():
        return _fail(f"corpus directory not found: {corpus_dir}", EXIT_IO)
    primitives = load_corpus(corpus_dir, config.max_chunk_chars)
    if not primitives:
        print(f"warning: no documents found under {corpus_dir}", file=sys.stderr)
    kb = KnowledgeBase(encoder=_build_encoder(config))
    kb.add_primitives(primitives)
    summarizer = None
    if config.summarizer_url:
        summarizer = HttpSummarizer(
            config.summarizer_url, config.http_timeout_s,
            config.http_retries, config.http_backoff_s,
        )
    build_all_entries(kb, config.k, summarizer)
    kb.save(args.out_path)
    for name in anatomy.ANATOMY_NAMES:
        count = len(kb.index.by_group.get(name, []))
        print(f"{name}: {count} primitives")
    print(f"saved {len(kb)} primitives, {len(kb.entries)} entries -> {args.out_path}")
    return EXIT_OK


def cmd_query_kb(args, config: EngineConfig) -> int:
    kb = _load_kb(args.kb, config)
    result = kb.retrieve_topk(args.text, anatomy_name=args.anatomy, k=args.k)
    if args.json:
        print(json.dumps({
            "no_knowledge": result.no_knowledge,
            "hits": [{"id": h.primitive_id, "similarity": h.similarity} for h in result.hits],
        }, indent=2, sort_keys=True))
        return EXIT_OK
    if result.no_knowledge:
        print(f"no knowledge for anatomy {args.anatomy!r}")
        return EXIT_OK
    for rank, hit in enumerate(result.hits, start=1):
        text = kb.primitives[hit.primitive_id].text.replace("\n", " ")
        snippet = text[:90] + ("..." if len(text) > 90 else "")
        print(f"{rank:2d}. {hit.similarity:.4f}  {hit.primitive_id}  {snippet}")
    return EXIT_OK


def cmd_gen_fixtures(args, config: EngineConfig) -> int:
    from .fixtures.corpus import write_corpus
    from .fixtures.studies import generate_dataset
    from .quant.synth import (
        cylinder_pair, cylinder_volume_ml, spheroid_pair, spheroid_volume_ml,
    )
    from .tools.pgm import write_pgm

    out = Path(args.out_dir)
    if args.what == "corpus":
        written = write_corpus(out)
        print(f"wrote {len(written)} corpus documents -> {out}")
        return EXIT_OK
    if args.what == "dataset":
        records = generate_dataset(out, seed=args.seed, include_qa=args.include_qa)
        for record in records:
            truth = record["truth"]
            label = truth.get("grade") or truth.get("answer_option")
            print(f"{record['id']}: {label}")
        print(f"wrote {len(records)} study records -> {out}")
        return EXIT_OK
    # masks
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "spheroid":
        a2c, a4c = spheroid_pair(args.length_mm, args.radius_mm, args.spacing, args.size)
        analytic = spheroid_volume_ml(args.length_mm, args.radius_mm)
    else:
        width_px = int(round(2 * args.radius_mm / args.spacing))
        height_px = int(round(args.length_mm / args.spacing))
        a2c, a4c = cylinder_pair(width_px, height_px, args.spacing, args.size)
        analytic = cylinder_volume_ml(2 * args.radius_mm, args.length_mm)
    write_pgm(out / "a2c.pgm", a2c.labels)
    write_pgm(out / "a4c.pgm", a4c.labels)
    meta = {
        "kind": args.kind,
        "length_mm": args.length_mm,
        "radius_mm": args.radius_mm,
        "spacing_mm": args.spacing,
        "size_px": args.size,
        "analytic_volume_ml": analytic,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.kind} mask pair (analytic volume {analytic:.2f} mL) -> {out}")
    return EXIT_OK


def _study_refs(study_dir: Path) -> tuple[str, ...]:
    if (study_dir / "study.json").exists():
        return (str(study_dir),)
    refs = tuple(
        str(child) for child in sorted(study_dir.iterdir())
        if child.is_dir() and (child / "study.json").exists()
    )
    if not refs:
        raise FixtureError(f"no study sidecars found under {study_dir}")
    return refs


def cmd_run_study(args, config: EngineConfig) -> int:
    from .tools.views import load_taxonomy

    study_dir = Path(args.study_dir)
    if not study_dir.is_dir():
        return _fail(f"study directory not found: {study_dir}", EXIT_IO)
    kb = _load_kb(args.kb, config)
    registry = build_default_registry(config)
    hub = ReasoningHub(kb, registry, config, taxonomy=load_taxonomy(config.taxonomy_path))
    options = tuple(args.options) if args.options else None
    query = DiagnosticQuery(
        text=args.question, study_refs=_study_refs(study_dir), options=options
    )
    trace_path = args.trace or (study_dir / "trace.jsonl")
    try:
        conclusion = hub.run(query, trace_path=trace_path)
    except ResolutionError as exc:
        nearest = ", ".join(exc.nearest) if exc.nearest else "none"
        return _fail(f"{exc} (nearest anatomies: {nearest})", EXIT_RESOLUTION)
    if args.json:
        print(json.dumps({
            "answer": conclusion.answer,
            "posterior": conclusion.posterior,
            "low_consistency": conclusion.low_consistency,
            "anatomy": conclusion.anatomy,
            "ef_percent": conclusion.ef_percent,
            "grade": conclusion.grade,
            "executed_steps": conclusion.executed_steps,
            "subgoal_steps": conclusion.subgoal_steps,
            "trace_path": conclusion.trace_path,
        }, indent=2, sort_keys=True))
        return EXIT_OK
    top = max(conclusion.posterior.values())
    print(f"anatomy: {conclusion.anatomy}")
    print(f"answer: {conclusion.answer} (posterior {top:.4f})")
    if conclusion.ef_percent is not None:
        print(f"ef_percent: {conclusion.ef_percent:.2f}")
    if conclusion.low_consistency:
        print("flag: low-consistency conclusion")
    print(f"trace: {conclusion.trace_path}")
    return EXIT_OK


def cmd_evaluate(args, config: EngineConfig) -> int:
    from .evalharness.benchmark import run_benchmark, write_report
    from .evalharness.dataset import load_dataset
    from .tools.views import load_taxonomy

    kb = _load_kb(args.kb, config)
    registry = build_default_registry(config)
    records = load_dataset(args.dataset_dir)
    report = run_benchmark(
        records, kb, registry, config,
        dataset_root=args.dataset_dir, trace_dir=args.traces,
        extra_threshold=args.auroc_threshold,
        taxonomy=load_taxonomy(config.taxonomy_path),
    )
    payload = report.to_json()
    if args.report:
        write_report(report, args.report)
        print(f"report -> {args.report}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if report.overall_acc is not None:
        print(f"overall accuracy: {report.overall_acc:.2f}% "
              f"({report.succeeded}/{report.total} records)")
    return EXIT_OK if report.failed == 0 else EXIT_IO


def cmd_tools(args, config: EngineConfig) -> int:
    registry = build_default_registry(config)
    tools = registry.list_tools(layer=args.layer)
    if args.json:
        print(json.dumps([
            {
                "name": d.name,
                "layer": d.layer,
                "backend": d.backend,
                "anatomy": sorted(d.applicable_anatomy) or "universal",
                "outputs": sorted(d.output_fields()),
            }
            for d in tools
        ], indent=2, sort_keys=True))
        return EXIT_OK
    for d in tools:
        scope = ", ".join(sorted(d.applicable_anatomy)) or "universal"
        print(f"{d.name:28s} {d.layer:12s} {d.backend:7s} [{scope}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echoagent",
        description="Knowledge-grounded echocardiography study interpretation.",
    )
    parser.add_argument("--config", help="JSON config file (or set ECHOAGENT_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-kb", help="ingest a corpus directory into a knowledge index")
    p.add_argument("corpus_dir")
    p.add_argument("out_path")
    p.set_defaults(func=cmd_build_kb)

    p = sub.add_parser("query-kb", help="top-k retrieval against a saved index")
    p.add_argument("text")
    p.add_argument("--kb", required=True)
    p.add_argument("--anatomy", choices=anatomy.ANATOMY_NAMES)
    p.add_argument("-k", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_query_kb)

    p = sub.add_parser("gen-fixtures", help="generate corpus, dataset, or mask fixtures")
    p.add_argument("what", choices=("corpus", "dataset", "masks"))
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds cosmetic randomness in generated frames only")
    p.add_argument("--include-qa", action="store_true",
                   help="also write the multiple-choice studies")
    p.add_argument("--kind", choices=("spheroid", "cylinder"), default="spheroid")
    p.add_argument("--length-mm", type=float, default=80.0)
    p.add_argument("--radius-mm", type=float, default=25.0)
    p.add_argument("--spacing", type=float, default=0.5)
    p.add_argument("--size", type=int, default=256)
    p.set_defaults(func=cmd_gen_fixtures)

    p = sub.add_parser("run-study", help="answer one diagnostic question over a study")
    p.add_argument("study_dir")
    p.add_argument("question")
    p.add_argument("--kb", required=True)
    p.add_argument("--options", nargs="+", help="multiple-choice options")
    p.add_argument("--trace", help="trace file path (default: <study>/trace.jsonl)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run_study)

    p = sub.add_parser("evaluate", help="run the benchmark over a dataset directory")
    p.add_argument("dataset_dir")
    p.add_argument("--kb", required=True)
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.add_argument("--traces", help="directory for per-record trace files")
    p.add_argument("--auroc-threshold", type=float, default=45.0,
                   help="third EF threshold for the ROC analysis (50 and 40 are fixed)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tools", help="list the registered toolkit")
    p.add_argument("--layer", choices=("perceptual", "operational", "functional"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tools)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = EngineConfig.resolve(args.config)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_CONTRACT)
    try:
        return args.func(args, config)
    except EchoAgentError as exc:
        return _fail(str(exc), _exit_code_for(exc))
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
