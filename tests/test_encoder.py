import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_primitive
from oracles import _seed_tokenize, seed_token_counts

from echoagent.config import EngineConfig
from echoagent.errors import ContractError, EncoderError, TransportError
from echoagent.kb import encoder as encoder_module
from echoagent.kb.chunking import load_corpus
from echoagent.kb.encoder import HashedBowEncoder, HttpEncoder, normalize, tokenize
from echoagent.kb.index import KnowledgeBase

# repeated and mixed-case tokens, digits, non-ASCII letters (which split
# tokens), and the Kelvin sign, which lowercases to an ASCII "k"
_WORDS = st.one_of(
    st.sampled_from([
        "LV", "lv", "Lv", "ventricle", "VENTRICLE", "EF", "55", "a4c",
        "naïve", "Größe", "\u212aelvin", "é", "日本",
    ]),
    st.text(max_size=6),
)
_SEPARATORS = st.sampled_from([" ", ", ", "-", "!!", "\n", " \u2014 ", "'s ", "(", ")"])


@st.composite
def token_texts(draw):
    """Texts with at least one token, so that every text embeds."""
    words = ["lv"] + draw(st.lists(_WORDS, max_size=20))
    separators = draw(st.lists(_SEPARATORS, min_size=len(words), max_size=len(words)))
    return "".join(w + s for w, s in zip(words, separators))


@pytest.mark.parametrize("text, tokens", [
    ("LV-EF: 55%, a4c/a2c (normal).", ["lv", "ef", "55", "a4c", "a2c", "normal"]),
    ("end_diastole;end`systole~x|y{z}[0]", ["end", "diastole", "end", "systole", "x", "y", "z", "0"]),
    ("2024-01-02T03:04 #1 @2 $3 ^4 &5 *6 +7 =8 <9> ?10 \\11 \"12\" '13'", [
        "2024", "01", "02t03", "04", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11",
        "12", "13"]),
    ("caf\u00e9 na\u00efve", ["caf", "na", "ve"]),
    ("Gr\u00f6\u00dfe stra\u00dfe", ["gr", "e", "stra", "e"]),
    # "\u0130" lowercases to "i" and a combining dot, which splits
    ("\u0130stanbul", ["i", "stanbul"]),
    # the Kelvin sign lowercases to an ASCII "k"
    ("\u212aelvin 5\u212a", ["kelvin", "5k"]),
    ("\u017fs \ufb01ne", ["s", "ne"]),
    ("a\udcffb \ud800", ["a", "b"]),
    ("", []),
    (" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000", []),
], ids=["ascii_punctuation", "ascii_symbols", "digits", "e_acute", "sharp_s",
        "dotted_capital_i", "kelvin", "long_s_and_fi", "lone_surrogates", "empty", "whitespace"])
def test_tokenize_splits_as_the_seed_pattern(text, tokens):
    assert tokenize(text) == _seed_tokenize(text) == tokens


def test_embed_batch_rows_equal_embed_on_the_fixture_corpus(corpus_dir):
    texts = [p.text for p in load_corpus(corpus_dir)]
    enc = HashedBowEncoder(256)
    rows = enc.embed_batch(texts)
    for row, text in zip(rows, texts):
        assert np.array_equal(row, enc.embed(text))
        assert np.array_equal(row, normalize(seed_token_counts(text, 256)))


def test_embedding_is_deterministic():
    enc = HashedBowEncoder(256)
    a = enc.embed("left ventricle at end-diastole")
    b = enc.embed("left ventricle at end-diastole")
    assert np.array_equal(a, b)


def test_embedding_is_unit_norm():
    enc = HashedBowEncoder(256)
    vec = enc.embed("left ventricle")
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9
    assert vec.shape == (256,)


def test_self_cosine_is_one():
    enc = HashedBowEncoder(256)
    vec = enc.embed("apical four chamber view")
    assert abs(float(vec @ vec) - 1.0) <= 1e-9


def test_tokenless_text_raises_zero_vector_error():
    enc = HashedBowEncoder(256)
    with pytest.raises(EncoderError):
        enc.embed("!!! --- ???")
    with pytest.raises(EncoderError):
        enc.embed("")


def test_scaling_counts_before_normalization_changes_nothing():
    counts = seed_token_counts("ejection fraction of the left ventricle", 64)
    assert np.allclose(normalize(counts), normalize(counts * 37.5))


def http_encoder(stub_server, dim, **transport):
    """An encoder posting to the stub, with no backoff between retries."""
    return HttpEncoder(EngineConfig(encoder_url=stub_server.url, embedding_dim=dim,
                                    http_backoff_s=0.0, **transport))


def test_http_encoder_roundtrip(stub_server):
    stub_server.script = [(200, {"vectors": [[3.0, 4.0] + [0.0] * 62]})]
    enc = http_encoder(stub_server, dim=64)
    vec = enc.embed("hello")
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9
    assert vec[0] == pytest.approx(0.6)
    path, body = stub_server.requests[0]
    assert path == "/embed"
    assert body == {"texts": ["hello"]}


def test_http_encoder_retries_then_fails(stub_server):
    stub_server.script = [(500, {}), (500, {}), (500, {})]
    enc = http_encoder(stub_server, dim=8, http_retries=2)
    with pytest.raises(TransportError) as err:
        enc.embed("hello")
    assert err.value.attempts == 3
    assert len(stub_server.requests) == 3


def test_http_encoder_rejects_malformed_vectors(stub_server):
    stub_server.script = [(200, {"vectors": [[1.0, 2.0]]})]  # wrong dim
    enc = http_encoder(stub_server, dim=8)
    with pytest.raises(ContractError):
        enc.embed("hello")


def test_http_encoder_rejects_a_body_that_is_not_an_object(stub_server):
    stub_server.script = [(200, [[1.0] * 8])]
    enc = http_encoder(stub_server, dim=8)
    with pytest.raises(ContractError, match="vectors"):
        enc.embed("hello")


@settings(max_examples=150, deadline=None)
@given(texts=st.lists(token_texts(), min_size=1, max_size=8),
       dim=st.sampled_from([1, 7, 256]))
def test_embed_batch_rows_equal_embed_and_the_seed_counts(texts, dim):
    enc = HashedBowEncoder(dim)
    rows = enc.embed_batch(texts)
    assert rows.shape == (len(texts), dim)
    for row, text in zip(rows, texts):
        assert np.array_equal(row, enc.embed(text))
        assert np.array_equal(row, normalize(seed_token_counts(text, dim)))


def test_embed_batch_rejects_an_empty_or_tokenless_text():
    enc = HashedBowEncoder(16)
    for bad in ("", "!!! ???"):
        with pytest.raises(EncoderError):
            enc.embed_batch(["left ventricle", bad, "aorta"])


def test_add_primitives_buckets_each_distinct_token_once(monkeypatch):
    calls = []
    real_bucket = encoder_module._bucket

    def counting_bucket(token, dim):
        calls.append(token)
        return real_bucket(token, dim)

    monkeypatch.setattr(encoder_module, "_bucket", counting_bucket)
    texts = ["LV ejection fraction", "lv lv LV volume", "Ejection fraction, volume."]
    kb = KnowledgeBase(encoder=HashedBowEncoder(64))
    kb.add_primitives([make_primitive(f"p#{i}", t) for i, t in enumerate(texts)])
    assert sorted(calls) == ["ejection", "fraction", "lv", "volume"]


def test_http_encoder_batch_posts_the_missing_texts_once_in_input_order(stub_server):
    dim = 4
    stub_server.script = [(200, {"vectors": [[1.0, 0.0, 0.0, 0.0], [0.0, 3.0, 4.0, 0.0]]})]
    kb = KnowledgeBase(encoder=http_encoder(stub_server, dim=dim))
    primitives = [
        make_primitive("b#0", "second by id, first in input"),
        make_primitive("a#0", "third by id, second in input"),
    ]
    kb.add_primitives(primitives)
    assert stub_server.requests == [
        ("/embed", {"texts": ["second by id, first in input", "third by id, second in input"]})
    ]
    assert kb.ids == ["a#0", "b#0"]
    assert np.array_equal(kb._matrix, [[0.0, 0.6, 0.8, 0.0], [1.0, 0.0, 0.0, 0.0]])


def test_http_encoder_failure_leaves_the_knowledge_base_unchanged(stub_server):
    stub_server.script = [(500, {})]
    kb = KnowledgeBase(encoder=http_encoder(stub_server, dim=4, http_retries=1))
    primitives = [make_primitive("a#0", "first"), make_primitive("b#0", "second")]
    with pytest.raises(TransportError):
        kb.add_primitives(primitives)
    assert len(stub_server.requests) == 2
    assert len(kb) == 0
    assert kb.ids == []
    assert kb._matrix.shape == (0, 4)


def _block_texts(n: int) -> list[str]:
    """n texts of 1 to 40 words drawn from a small vocabulary with repeats."""
    rng = np.random.default_rng(n)
    vocabulary = ["LV", "ventricle", "EF", "55", "a4c", "Mitral", "valve", "naïve", "x", "日本"]
    return [" ".join(rng.choice(vocabulary, int(rng.integers(1, 41)))) + " lv"
            for _ in range(n)]


@pytest.mark.parametrize("n", [
    encoder_module.COUNT_BLOCK, encoder_module.COUNT_BLOCK + 1, 3 * encoder_module.COUNT_BLOCK + 5,
], ids=["one_block", "one_block_plus_one", "several_blocks"])
def test_embed_batch_counts_block_by_block_into_a_column_major_matrix(n):
    enc = HashedBowEncoder(32)
    texts = _block_texts(n)
    rows = enc.embed_batch(texts)
    assert rows.shape == (n, 32)
    assert rows.flags.f_contiguous
    for row, text in zip(rows, texts):
        assert np.array_equal(row, enc.embed(text))


def _recording_encoder(monkeypatch, dim: int) -> tuple[HashedBowEncoder, list]:
    """A hashed-bow encoder that keeps every batch it returns."""
    enc = HashedBowEncoder(dim)
    batches = []
    real = enc.embed_batch

    def embed_batch(texts):
        batches.append(real(texts))
        return batches[-1]

    monkeypatch.setattr(enc, "embed_batch", embed_batch)
    return enc, batches


def test_add_primitives_keeps_the_encoders_batch_as_its_matrix(monkeypatch):
    enc, batches = _recording_encoder(monkeypatch, 16)
    texts = _block_texts(40)
    kb = KnowledgeBase(encoder=enc)
    kb.add_primitives([make_primitive(f"p#{i:02d}", t) for i, t in enumerate(texts)])
    [batch] = batches
    assert kb._matrix is batch
    assert np.array_equal(kb._matrix, np.array([enc.embed(t) for t in texts]))


@pytest.mark.parametrize("held", [0, 5], ids=["empty_index", "non_empty_index"])
def test_add_primitives_scatters_a_batch_whose_ids_do_not_ascend(monkeypatch, held):
    enc, batches = _recording_encoder(monkeypatch, 16)
    texts = _block_texts(40)
    kb = KnowledgeBase(encoder=enc)
    # unpadded ids: "p#10" sorts before "p#2"
    primitives = [make_primitive(f"p#{i}", t) for i, t in enumerate(texts)]
    kb.add_primitives(primitives[:held])
    kb.add_primitives(primitives[held:])
    assert not np.shares_memory(kb._matrix, batches[-1])
    assert kb._matrix.flags.f_contiguous
    assert kb.ids == sorted(p.id for p in primitives)
    assert np.array_equal(kb._matrix, np.array([enc.embed(texts[int(pid[2:])]) for pid in kb.ids]))


def test_add_primitives_copies_a_batch_into_a_non_empty_index_even_in_id_order(monkeypatch):
    enc, batches = _recording_encoder(monkeypatch, 16)
    kb = KnowledgeBase(encoder=enc)
    kb.add_primitives([make_primitive("a#0", "left ventricle")])
    kb.add_primitives([make_primitive("b#0", "aortic root"), make_primitive("c#0", "mitral")])
    assert kb.ids == ["a#0", "b#0", "c#0"]
    assert not np.shares_memory(kb._matrix, batches[-1])
    assert np.array_equal(kb._matrix, np.array(
        [enc.embed(t) for t in ("left ventricle", "aortic root", "mitral")]))
