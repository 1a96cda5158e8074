from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import strategies as st

from echoagent import anatomy
from echoagent.fixtures.corpus import write_corpus
from echoagent.fixtures.studies import generate_ef_dataset, generate_qa_dataset
from echoagent.hub.graph import CAUSAL_KINDS
from echoagent.hub.toolkit import build_default_registry
from echoagent.kb.chunking import KnowledgePrimitive, SourceSpan, load_corpus
from echoagent.kb.index import KnowledgeBase
from echoagent.kb.summarize import build_all_entries
from echoagent.tools.masks import SegmentationMask


def make_primitive(pid, text, tags=()):
    return KnowledgePrimitive(
        id=pid,
        text=text,
        source=SourceSpan("test", 0, len(text)),
        anatomy_tags=frozenset(tags),
    )


# keywords in several cases, glued to each other and to non-ASCII letters
# whose lowercase forms change length ("\u0130") or depend on context ("\u03a3")
TAGGING_WORDS = st.one_of(
    st.sampled_from([kw for kw, _ in anatomy.KEYWORD_TABLE]),
    st.sampled_from([kw.upper() for kw, _ in anatomy.KEYWORD_TABLE]),
    st.sampled_from([kw.title() for kw, _ in anatomy.KEYWORD_TABLE]),
    st.sampled_from(["left", "ventricular", "aortic", "vena", "\u0130", "\u03a3", "\u03a3A\u03a3",
                     "mi\u0130tral", "valve", "lv", "ef", "septal."]),
    st.text(max_size=5),
)
TAGGING_SEPARATORS = st.sampled_from(["", " ", ". ", "\n\n", " \n \n", "\u03a3 ", "\u0130"])


@st.composite
def tagging_texts(draw):
    """Texts whose keywords may run across words, sentences and paragraphs."""
    words = draw(st.lists(TAGGING_WORDS, max_size=30))
    separators = draw(st.lists(TAGGING_SEPARATORS, min_size=len(words), max_size=len(words)))
    return "".join(w + s for w, s in zip(words, separators))


def split_index(raw: bytes) -> tuple[bytes, bytes, bytes]:
    """The digest, the head line and the data of a format 3 index file,
    without the newlines that end the first two."""
    digest, head, data = raw.split(b"\n", 2)
    return digest, head, data


def seal_index(head: dict | bytes, data: bytes) -> bytes:
    """The format 3 index file of a head and its data, led by their digest.

    A dict head is written as ``save`` writes it: canonical JSON, sorted
    keys and no spaces.
    """
    if isinstance(head, dict):
        head = json.dumps(head, sort_keys=True, separators=(",", ":")).encode("ascii")
    body = head + b"\n" + data
    return hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body


def index_matrix(head: dict, data: bytes) -> np.ndarray:
    """The (n, d) matrix whose column-major bytes are ``data``."""
    n, d = head["embeddings"]["shape"]
    return np.frombuffer(data, dtype="<f8").reshape(d, n).T.copy()


def matrix_data(matrix: np.ndarray) -> bytes:
    """The column-major little-endian bytes of an (n, d) matrix."""
    return np.asarray(matrix, dtype="<f8").T.tobytes()


def translate(mask: SegmentationMask, dx: int, dy: int) -> SegmentationMask:
    labels = np.roll(np.roll(mask.labels, dy, axis=0), dx, axis=1)
    return SegmentationMask(
        labels=labels,
        pixel_spacing_mm=mask.pixel_spacing_mm,
        structure_map=dict(mask.structure_map),
    )


def rotate90(mask: SegmentationMask) -> SegmentationMask:
    return SegmentationMask(
        labels=np.ascontiguousarray(np.rot90(mask.labels)),
        pixel_spacing_mm=(mask.pixel_spacing_mm[1], mask.pixel_spacing_mm[0]),
        structure_map=dict(mask.structure_map),
    )


def rescale_spacing(mask: SegmentationMask, factor: float) -> SegmentationMask:
    sx, sy = mask.pixel_spacing_mm
    return SegmentationMask(
        labels=mask.labels.copy(),
        pixel_spacing_mm=(sx * factor, sy * factor),
        structure_map=dict(mask.structure_map),
    )


def causal_parents(graph, node_id: str) -> list[str]:
    return [e.src for e in graph.edges if e.kind in CAUSAL_KINDS and e.dst == node_id]


def build_fixture_kb(corpus_dir, k: int = 8) -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_primitives(load_corpus(corpus_dir))
    build_all_entries(kb, k)
    return kb


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(root)
    return root


@pytest.fixture(scope="session")
def kb(corpus_dir):
    return build_fixture_kb(corpus_dir)


@pytest.fixture()
def registry():
    return build_default_registry()


@pytest.fixture(scope="session")
def ef_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ef_dataset")
    generate_ef_dataset(root)
    return root


@pytest.fixture(scope="session")
def qa_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("qa_dataset")
    generate_qa_dataset(root)
    return root


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        server: StubServer = self.server.stub  # type: ignore[attr-defined]
        server.requests.append((self.path, body))
        status, payload = server.next_response()
        # a bytes payload is sent verbatim, so a script can send a non-JSON body
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class StubServer:
    """Scripted HTTP backend: responses pop off a script, last one repeats."""

    def __init__(self):
        self.requests: list[tuple[str, dict]] = []
        self.script: list[tuple[int, dict | bytes]] = [(200, {})]
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self._httpd.stub = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def next_response(self) -> tuple[int, dict | bytes]:
        if len(self.script) > 1:
            return self.script.pop(0)
        return self.script[0]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture()
def stub_server():
    server = StubServer()
    yield server
    server.close()
