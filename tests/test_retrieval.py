import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_primitive
from oracles import brute_force_topk, seed_token_counts

from echoagent import anatomy
from echoagent.errors import EncoderError, IndexLoadError
from echoagent.kb.encoder import HashedBowEncoder, normalize
from echoagent.kb.index import KnowledgeBase


def random_kb(n=500, dim=64, seed=7):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    names = anatomy.ANATOMY_NAMES
    primitives = []
    for i in range(n):
        tags = {names[int(g)] for g in rng.integers(0, len(names), rng.integers(0, 3))}
        primitives.append(make_primitive(f"p{i:04d}", f"synthetic text {i}", tags))
    kb = KnowledgeBase(encoder=HashedBowEncoder(dim))
    kb.add_primitives(primitives, vectors)
    return kb, rng


def test_self_retrieval_hits_rank_one(kb):
    primitive = kb.primitives["lv-grading#0"]
    anatomy_name = sorted(primitive.anatomy_tags)[0]
    result = kb.retrieve_topk(primitive.text, anatomy_name=anatomy_name, k=1)
    assert result.hits[0].primitive_id == "lv-grading#0"
    assert result.hits[0].similarity == pytest.approx(1.0, abs=1e-9)


def test_k_larger_than_subset_returns_whole_subset(kb):
    subset = [kb.ids[row] for row in kb.group_rows["left ventricle"]]
    result = kb.retrieve_topk("ventricular function", anatomy_name="left ventricle", k=999)
    assert sorted(result.ids()) == sorted(subset)
    sims = [h.similarity for h in result.hits]
    assert sims == sorted(sims, reverse=True)


def test_empty_anatomy_subset_flags_no_knowledge():
    kb = KnowledgeBase(encoder=HashedBowEncoder(16))
    kb.add_primitives([make_primitive("a#0", "text", {"aorta"})],
                      normalize(seed_token_counts("text", 16))[None])
    result = kb.retrieve_topk("anything", anatomy_name="pericardium", k=3)
    assert result.hits == []
    assert result.no_knowledge


def test_retrieval_matches_brute_force_oracle_on_random_fixture():
    kb, rng = random_kb(n=500)
    items = [(pid, kb._matrix[row]) for row, pid in enumerate(kb.ids)]
    for _ in range(10):
        query = rng.normal(size=64)
        query /= np.linalg.norm(query)
        expected = [pid for pid, _ in brute_force_topk(items, query, 25)]
        got = kb.retrieve_topk_vector(query, k=25).ids()
        assert got == expected


def test_similarities_sum_the_nonzero_buckets_in_ascending_order():
    # the defined sum, one python float add per bucket, bit for bit; a
    # wrong-length query is refused
    kb, rng = random_kb(n=200)
    query = rng.normal(size=64) * (rng.random(64) < 0.2)
    query /= np.linalg.norm(query)
    expected = []
    for row in range(len(kb.ids)):
        total = 0.0
        for j in range(64):
            if query[j] != 0:
                total += float(kb._matrix[row, j]) * float(query[j])
        expected.append(total)
    assert kb.all_similarities(query).tolist() == expected
    with pytest.raises(ValueError, match="query shape"):
        kb.all_similarities(query[:63])


def test_filtered_ranking_is_subsequence_of_unfiltered():
    kb, rng = random_kb(n=300)
    query = rng.normal(size=64)
    query /= np.linalg.norm(query)
    unfiltered = kb.retrieve_topk_vector(query, k=300).ids()
    for name in ("left ventricle", "aorta", "pericardium"):
        subset_ids = {kb.ids[row] for row in kb.group_rows[name]}
        filtered = kb.retrieve_topk_vector(query, anatomy_name=name, k=300).ids()
        assert filtered == [pid for pid in unfiltered if pid in subset_ids]


def test_rankings_are_invariant_to_raw_embedding_scale():
    # continuous raw vectors: similarities are distinct, so any ranking
    # difference would have to come from the normalization itself
    dim = 32
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(40, dim))
    scales = rng.uniform(0.01, 100.0, size=40)
    primitives = [make_primitive(f"p{i:02d}", f"text {i}") for i in range(40)]
    kb_a = KnowledgeBase(encoder=HashedBowEncoder(dim))
    kb_a.add_primitives(primitives, np.array([normalize(raw[i]) for i in range(40)]))
    kb_b = KnowledgeBase(encoder=HashedBowEncoder(dim))
    kb_b.add_primitives(primitives,
                        np.array([normalize(raw[i] * scales[i]) for i in range(40)]))
    for _ in range(5):
        qvec = normalize(rng.normal(size=dim))
        assert (
            kb_a.retrieve_topk_vector(qvec, k=40).ids()
            == kb_b.retrieve_topk_vector(qvec, k=40).ids()
        )


def test_equal_similarities_rank_by_ascending_id_filtered_and_unfiltered():
    # one-hot embeddings score exactly the query's coordinate, so duplicates
    # tie exactly, and basis vectors 1 and 2 tie with each other too
    dim = 4
    rng = np.random.default_rng(11)
    names = ("left ventricle", "aorta")
    order = rng.permutation(120)  # unpadded ids: "t10" sorts before "t2"
    primitives = [make_primitive(f"t{i}", "text", {names[i % 2]} if i % 3 else set())
                  for i in order]
    kb = KnowledgeBase(encoder=HashedBowEncoder(dim))
    kb.add_primitives(primitives, np.eye(dim)[order % dim])
    query = normalize(np.array([4.0, 3.0, 3.0, 1.0]))
    row_of = {pid: row for row, pid in enumerate(kb.ids)}

    def expected(ids, k):
        sim = {pid: float(query[int(np.argmax(kb._matrix[row_of[pid]]))]) for pid in ids}
        return sorted(ids, key=lambda pid: (-sim[pid], pid))[:k], sim

    for name in (None, *names):
        ids = kb.ids if name is None else [kb.ids[row] for row in kb.group_rows[name]]
        for k in (7, 50, 200):
            order, sim = expected(ids, k)
            hits = kb.retrieve_topk_vector(query, anatomy_name=name, k=k).hits
            assert [h.primitive_id for h in hits] == order
            assert [h.similarity for h in hits] == [sim[pid] for pid in order]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from(anatomy.ANATOMY_NAMES), max_size=4),
                max_size=30),
       st.integers(min_value=0, max_value=30))
def test_index_membership_biconditional(tag_sets, split):
    # unpadded ids ("p10" sorts before "p2") and two batches, so a row is
    # neither the insertion index nor fixed by the first build
    primitives = [make_primitive(f"p{i}", "text", tags) for i, tags in enumerate(tag_sets)]
    vectors = np.eye(4)[np.arange(len(tag_sets)) % 4]
    kb = KnowledgeBase(encoder=HashedBowEncoder(4))
    kb.add_primitives(primitives[:split], vectors[:split])
    kb.add_primitives(primitives[split:], vectors[split:])
    assert kb.ids == sorted(p.id for p in primitives)
    assert np.array_equal(kb._matrix, np.eye(4)[[int(pid[1:]) % 4 for pid in kb.ids]])
    tags_of = {p.id: p.anatomy_tags for p in primitives}
    for name in anatomy.ANATOMY_NAMES:
        assert kb.group_rows[name].tolist() == [
            row for row, pid in enumerate(kb.ids) if name in tags_of[pid]
        ]
    assert kb.tagged_rows.tolist() == [row for row, pid in enumerate(kb.ids) if tags_of[pid]]


def test_identical_corpus_and_config_produce_identical_index_bytes(corpus_dir, tmp_path):
    from conftest import build_fixture_kb

    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    build_fixture_kb(corpus_dir).save(path_a)
    build_fixture_kb(corpus_dir).save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_k_must_be_positive(kb):
    with pytest.raises(ValueError):
        kb.retrieve_topk("text", k=0)


def _with_empty_text(pid, text):
    primitive = make_primitive(pid, "placeholder")
    primitive.text = text  # the constructor rejects empty text; a caller may still set it
    return primitive


@pytest.mark.parametrize("batch, error", [
    # a duplicate of an id already in the knowledge base, after a new one
    (lambda: [make_primitive("new#0", "aortic root"), make_primitive("old#1", "again")],
     IndexLoadError),
    # a duplicate within the batch
    (lambda: [make_primitive("new#0", "aortic root"), make_primitive("new#0", "twice")],
     IndexLoadError),
    # an empty and a tokenless text in mid-batch
    (lambda: [make_primitive("new#0", "aortic root"), _with_empty_text("new#1", ""),
              make_primitive("new#2", "mitral valve")],
     EncoderError),
    (lambda: [make_primitive("new#0", "aortic root"), make_primitive("new#1", "!!! ???"),
              make_primitive("new#2", "mitral valve")],
     EncoderError),
], ids=["duplicate_of_kb", "duplicate_in_batch", "empty_text", "tokenless_text"])
def test_failed_add_primitives_changes_nothing(batch, error):
    kb = KnowledgeBase(encoder=HashedBowEncoder(32))
    kb.add_primitives([make_primitive(f"old#{i}", f"left ventricle {i}", {"left ventricle"})
                       for i in range(3)])
    ids, matrix, rows = list(kb.ids), kb._matrix.copy(), kb.group_rows
    primitives = batch()
    with pytest.raises(error):
        kb.add_primitives(primitives)
    assert len(kb) == 3
    assert kb.ids == ids
    assert np.array_equal(kb._matrix, matrix)
    assert kb.group_rows is rows
    kb.add_primitives([make_primitive("new#9", "aortic root", {"aorta"})])
    assert len(kb) == 4 and kb._matrix.shape == (4, 32)


@pytest.mark.parametrize("embeddings, offender, message", [
    ([np.eye(4)[0], np.eye(4)[1] * 0.5, np.eye(4)[2] * 2], "c", "embedding norm 0.5 not unit"),
    ([np.eye(4)[0], np.eye(4)[1], np.ones(4), np.ones(4) * 3], "b", "embedding norm 2 not unit"),
    ([np.eye(4)[0], np.full(4, np.nan), np.eye(4)[1]], "c", "embedding norm nan not unit"),
], ids=["norm_first", "norm_only", "nan"])
def test_add_primitives_names_the_first_bad_embedding_in_input_order(
    embeddings, offender, message
):
    kb = KnowledgeBase(encoder=HashedBowEncoder(4))
    # ids descend, so the first offender in input order is the last by id
    primitives = [make_primitive(pid, "text") for pid in "dcba"[:len(embeddings)]]
    with pytest.raises(IndexLoadError, match=re.escape(f"primitive {offender!r} {message}")):
        kb.add_primitives(primitives, np.array(embeddings))
    assert kb.ids == []


@pytest.mark.parametrize("embeddings, message", [
    (np.eye(3), "embeddings shape (3, 3) is not (3, 4)"),
    (np.eye(4)[:2], "embeddings shape (2, 4) is not (3, 4)"),
    (np.eye(4)[0], "embeddings shape (4,) is not (3, 4)"),
], ids=["other_dim", "fewer_rows", "one_vector"])
def test_add_primitives_refuses_a_batch_of_the_wrong_shape(embeddings, message):
    kb = KnowledgeBase(encoder=HashedBowEncoder(4))
    kb.add_primitives([make_primitive("old", "aortic root")])
    matrix = kb._matrix.copy()
    with pytest.raises(IndexLoadError, match=re.escape(message)):
        kb.add_primitives([make_primitive(pid, "text") for pid in "abc"], embeddings)
    assert kb.ids == ["old"]
    assert np.array_equal(kb._matrix, matrix)


def test_added_embeddings_are_held_once():
    # the matrix is the only copy: neither the primitives nor the encoder's
    # batch keep a second one alive
    primitives = [make_primitive(f"p{i}", f"left ventricle note {i}", {"left ventricle"})
                  for i in range(2000)]
    kb = KnowledgeBase(encoder=HashedBowEncoder(256))
    tracemalloc.start()
    try:
        kb.add_primitives(primitives)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kb._matrix.shape == (2000, 256)
    assert held < 1.25 * kb._matrix.nbytes
