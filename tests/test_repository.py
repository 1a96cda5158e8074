from echoagent.config import EngineConfig
from echoagent.kb.summarize import (
    NO_GUIDANCE,
    SECTION_NAMES,
    HttpSummarizer,
    RepositoryEntry,
    build_all_entries,
    build_repository_entry,
    template_sections,
)


def test_template_bucket_rules():
    sections = template_sections([
        "Acquire the apical-4-chamber view.",
        "Segment the left ventricle border.",
        "Measure the end-diastolic volume in ml.",
        "EF below 40% indicates considerably reduced function.",
    ])
    assert "Acquire the apical-4-chamber view." in sections["views_to_acquire"]
    assert "Segment the left ventricle border." in sections["structures_to_segment"]
    assert "Measure the end-diastolic volume in ml." in sections["measurements"]
    assert (
        "EF below 40% indicates considerably reduced function."
        in sections["diagnostic_criteria"]
    )


def test_unmatched_sections_carry_no_guidance_marker():
    sections = template_sections(["completely unrelated prose with no trigger words"])
    assert sections["views_to_acquire"] == [NO_GUIDANCE]
    assert sections["diagnostic_criteria"] == [NO_GUIDANCE]


def test_fixture_criterion_lands_in_lv_diagnostic_criteria(kb):
    entry = kb.entries["left ventricle"]
    needle = "EF below 40% indicates considerably reduced function"
    assert any(needle in item for item in entry.sections["diagnostic_criteria"])


def test_anatomy_with_no_primitives_yields_no_guidance_entry():
    from echoagent.kb.encoder import HashedBowEncoder
    from echoagent.kb.index import KnowledgeBase

    empty = KnowledgeBase(encoder=HashedBowEncoder(16))
    entry = build_repository_entry(empty, "pulmonic valve", k=8)
    for name in SECTION_NAMES:
        assert entry.sections[name] == [NO_GUIDANCE]
    assert entry.supporting_primitive_ids == []
    assert not any(entry.section_items(name) for name in SECTION_NAMES)


def test_supporting_ids_equal_topk_for_same_anatomy_and_k(kb):
    entry = kb.entries["left ventricle"]
    from echoagent import anatomy

    group = anatomy.group_by_name("left ventricle")
    query = " ".join((group.canonical_name, *group.keywords))
    result = kb.retrieve_topk(query, anatomy_name="left ventricle", k=entry.created_from_k)
    assert entry.supporting_primitive_ids == result.ids()


def test_build_all_entries_embeds_its_queries_in_one_batch(kb, corpus_dir, monkeypatch):
    from echoagent import anatomy
    from echoagent.kb.chunking import load_corpus
    from echoagent.kb.index import KnowledgeBase

    fresh = KnowledgeBase()
    fresh.add_primitives(load_corpus(corpus_dir))
    batches = []
    embed_batch = fresh.encoder.embed_batch

    def counted(texts):
        batches.append(list(texts))
        return embed_batch(texts)

    monkeypatch.setattr(fresh.encoder, "embed_batch", counted)
    build_all_entries(fresh, 8)
    assert [len(texts) for texts in batches] == [len(anatomy.ANATOMY_NAMES)]
    # the batch's rows rank as each query embedded alone does
    for name in anatomy.ANATOMY_NAMES:
        assert fresh.entries[name] == build_repository_entry(fresh, name, 8) == kb.entries[name]


def test_summarizer_backend_used_when_well_formed(kb, stub_server):
    payload = {name: [f"{name} item"] for name in SECTION_NAMES}
    stub_server.script = [(200, payload)]
    summarizer = HttpSummarizer(EngineConfig(summarizer_url=stub_server.url, http_backoff_s=0.0))
    entry = build_repository_entry(kb, "left ventricle", k=4, summarizer=summarizer)
    assert not entry.degraded
    assert entry.sections["measurements"] == ["measurements item"]
    path, body = stub_server.requests[0]
    assert path == "/summarize"
    assert body["anatomy"] == "left ventricle"
    assert len(body["texts"]) == len(entry.supporting_primitive_ids)


def test_malformed_summarizer_falls_back_to_template_with_flag(kb, stub_server):
    stub_server.script = [(200, {"wrong": "shape"})]
    summarizer = HttpSummarizer(EngineConfig(summarizer_url=stub_server.url, http_backoff_s=0.0))
    entry = build_repository_entry(kb, "left ventricle", k=4, summarizer=summarizer)
    assert entry.degraded
    assert any(item != NO_GUIDANCE for item in entry.sections["measurements"])


def test_unreachable_summarizer_also_degrades(kb):
    summarizer = HttpSummarizer(EngineConfig(
        summarizer_url="http://127.0.0.1:1", http_timeout_s=0.05, http_retries=0,
        http_backoff_s=0.0,
    ))
    entry = build_repository_entry(kb, "left ventricle", k=4, summarizer=summarizer)
    assert entry.degraded


def test_entry_json_roundtrip(kb):
    entry = kb.entries["pericardium"]
    clone = RepositoryEntry.from_json(entry.to_json())
    assert clone == entry


def test_entry_rules_are_the_parsed_criteria_after_build_and_after_load(kb, tmp_path):
    from echoagent.kb.criteria import parse_criteria
    from echoagent.kb.index import KnowledgeBase

    path = tmp_path / "kb.json"
    kb.save(path)
    loaded = KnowledgeBase.load(path)
    assert sorted(loaded.entries) == sorted(kb.entries)
    for entries in (kb.entries, loaded.entries):
        for entry in entries.values():
            assert entry.rules == parse_criteria(entry.section_items("diagnostic_criteria"))
    assert kb.entries["left ventricle"].rules
    # parsed once: the same tuple on every read
    entry = loaded.entries["left ventricle"]
    assert entry.rules is entry.rules


def test_entry_rules_are_not_written_to_the_index(kb):
    entry = kb.entries["left ventricle"]
    assert entry.rules
    assert set(entry.to_json()) == {
        "anatomy", "sections", "supporting_primitive_ids", "created_from_k", "degraded",
    }
