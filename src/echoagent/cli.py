"""Command-line interface.

Subcommands: build-kb, query-kb, gen-fixtures, run-study, evaluate, tools.
Exit codes: 0 success; on failure, the ``exit_code`` its error class declares
in ``errors.py`` (1 I/O or input, 2 query resolution, 3 contract or config).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import anatomy
from .config import EngineConfig
from .errors import ContractError, EchoAgentError, FixtureError
from .kb.chunking import load_corpus
from .kb.criteria import criteria_sentences
from .kb.encoder import HashedBowEncoder, HttpEncoder
from .kb.index import KnowledgeBase
from .kb.summarize import HttpSummarizer, build_all_entries

EXIT_OK = 0
EXIT_IO = 1


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _build_encoder(config: EngineConfig):
    return HttpEncoder(config) if config.encoder_url else HashedBowEncoder(config.embedding_dim)


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
    summarizer = HttpSummarizer(config) if config.summarizer_url else None
    build_all_entries(kb, config.k, summarizer)
    kb.save(args.out_path)
    for name in anatomy.ANATOMY_NAMES:
        print(f"{name}: {kb.group_rows[name].size} primitives")
    for name in anatomy.ANATOMY_NAMES:
        entry = kb.entries[name]
        print(f"rules of {name}:" + ("" if entry.rules else " none"))
        for rule in entry.rules:
            print(f"  {rule.describe()}")
        parsed = {rule.source_text for rule in entry.rules}
        for sentence in criteria_sentences(entry.section_items("diagnostic_criteria")):
            if sentence not in parsed:
                print(f"  no rule: {sentence}")
    print(f"saved {len(kb)} primitives, {len(kb.entries)} entries -> {args.out_path}")
    return EXIT_OK


def cmd_query_kb(args, config: EngineConfig) -> int:
    if args.k < 1:
        raise ContractError(f"-k must be >= 1, got {args.k}")
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
    from .fixtures.shapes import (
        cylinder_volume_ml, ellipse_mask, rect_mask, spheroid_volume_ml,
    )
    from .fixtures.studies import generate_dataset
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
    # masks: one rendered view stands for both apical views
    for option in ("size", "length_mm", "radius_mm", "spacing"):
        value = getattr(args, option)
        if not (math.isfinite(value) and value > 0):
            flag = "--" + option.replace("_", "-")
            raise ContractError(f"{flag} must be a finite number > 0, got {value}")
    if args.kind == "spheroid":
        # the outermost pixel centres lie (size - 1) / 2 spacings from the middle
        span_mm = (args.size - 1) * args.spacing
        fits = max(args.length_mm, 2 * args.radius_mm) <= span_mm
        mask = ellipse_mask(args.size, args.length_mm / 2.0, args.radius_mm, args.spacing)
        analytic = spheroid_volume_ml(args.length_mm, args.radius_mm)
    else:
        width_px = int(round(2 * args.radius_mm / args.spacing))
        height_px = int(round(args.length_mm / args.spacing))
        fits = max(width_px, height_px) <= args.size
        mask = rect_mask(args.size, width_px, height_px, (args.spacing, args.spacing))
        analytic = cylinder_volume_ml(2 * args.radius_mm, args.length_mm)
    if not fits:
        raise ContractError(
            f"a {args.length_mm} x {2 * args.radius_mm} mm {args.kind} does not fit "
            f"on {args.size} x {args.size} px at {args.spacing} mm"
        )
    if not mask.labels.any():
        raise ContractError(f"the {args.kind} covers no pixel centre at {args.spacing} mm")
    out.mkdir(parents=True, exist_ok=True)
    write_pgm(out / "a2c.pgm", mask.labels)
    write_pgm(out / "a4c.pgm", mask.labels)
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
    from .hub.engine import DiagnosticQuery, ReasoningHub
    from .hub.toolkit import build_default_registry

    study_dir = Path(args.study_dir)
    if not study_dir.is_dir():
        return _fail(f"study directory not found: {study_dir}", EXIT_IO)
    kb = _load_kb(args.kb, config)
    registry = build_default_registry(config)
    hub = ReasoningHub(kb, registry, config)
    options = tuple(args.options) if args.options else None
    query = DiagnosticQuery(
        text=args.question, study_refs=_study_refs(study_dir), options=options
    )
    conclusion = hub.run(query, trace_path=args.trace or "trace.jsonl")
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
    from .hub.toolkit import build_default_registry

    kb = _load_kb(args.kb, config)
    registry = build_default_registry(config)
    records = load_dataset(args.dataset_dir)
    report = run_benchmark(
        records, kb, registry, config,
        dataset_root=args.dataset_dir, trace_dir=args.traces,
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
    from .hub.toolkit import build_default_registry

    registry = build_default_registry(config)
    tools = registry.list_tools(layer=args.layer)
    if args.json:
        print(json.dumps([
            {
                "name": d.name,
                "layer": d.layer,
                "backend": d.backend,
                "outputs": sorted(spec.name for spec in d.output_schema),
            }
            for d in tools
        ], indent=2, sort_keys=True))
        return EXIT_OK
    for d in tools:
        print(f"{d.name:28s} {d.layer:12s} {d.backend}")
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
    p.add_argument("--trace", help="trace file path (default: ./trace.jsonl)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run_study)

    p = sub.add_parser("evaluate", help="run the benchmark over a dataset directory")
    p.add_argument("dataset_dir")
    p.add_argument("--kb", required=True)
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.add_argument("--traces", help="directory for per-record trace files")
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
        return args.func(args, EngineConfig.resolve(args.config))
    except EchoAgentError as exc:
        return _fail(str(exc), exc.exit_code)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
