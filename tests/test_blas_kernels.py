"""Outputs do not depend on the host's BLAS kernel.

OpenBLAS picks its kernel for the host's CPU when it loads, and
``OPENBLAS_CORETYPE`` forces one. Each kernel runs in a fresh interpreter
that hashes the long axes and disks of seeded, tilted, anisotropic ellipse
masks and the similarities of seeded queries against a seeded index; every
kernel must give the same hashes.
"""
import os
import subprocess
import sys
from pathlib import Path

import echoagent

SRC = str(Path(echoagent.__file__).resolve().parents[1])

KERNELS = (None, "Haswell", "SandyBridge", "Prescott")

SCRIPT = r"""
import hashlib

import numpy as np

from echoagent.kb.encoder import HashedBowEncoder
from echoagent.kb.index import KnowledgeBase
from echoagent.kb.chunking import KnowledgePrimitive, SourceSpan
from echoagent.quant.geometry import disk_diameters, long_axis
from echoagent.tools.masks import SegmentationMask


def tilted_ellipse(rng):
    size = int(rng.integers(64, 161))
    y, x = np.mgrid[0:size, 0:size]
    cx, cy = rng.uniform(0.35, 0.65, 2) * size
    a, b = rng.uniform(0.12, 0.3) * size, rng.uniform(0.05, 0.12) * size
    angle = rng.uniform(0, np.pi)
    u = (x - cx) * np.cos(angle) + (y - cy) * np.sin(angle)
    v = (y - cy) * np.cos(angle) - (x - cx) * np.sin(angle)
    labels = ((u / a) ** 2 + (v / b) ** 2 <= 1).astype(np.uint8)
    spacing = (float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.2, 0.6)))
    return SegmentationMask(labels, spacing, {1: "left ventricle"})


geometry = hashlib.sha256()
for seed in range(150):
    mask = tilted_ellipse(np.random.default_rng(seed))
    axis = long_axis(mask, 1)
    values = axis.apex + axis.base_mid + (axis.length_mm,)
    values += tuple(disk_diameters(mask, 1, axis, 20))
    geometry.update(np.array(values).tobytes())

rng = np.random.default_rng(0)
encoder = HashedBowEncoder(256)
rows = rng.random((3000, 256)) * (rng.random((3000, 256)) < 0.05)
rows[:, 0] += 1e-3  # no zero row
primitives = [KnowledgePrimitive(f"p{i:04d}", "text", SourceSpan("doc", 0, 4), frozenset())
              for i in range(len(rows))]
kb = KnowledgeBase(encoder=encoder)
kb.add_primitives(primitives, rows / np.linalg.norm(rows, axis=1, keepdims=True))
dense = rng.random(256)
similarity = hashlib.sha256()
for query in (
    encoder.embed("Is the left ventricular ejection fraction normal or reduced?"),
    encoder.embed("left atrial area enlargement in the apical four-chamber view"),
    dense / np.linalg.norm(dense),
):
    similarity.update(kb.all_similarities(query).tobytes())
print(geometry.hexdigest(), similarity.hexdigest())
"""


def hashes_under(kernel):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, check=True)
    return tuple(done.stdout.split())


def test_axes_disks_and_similarities_hash_the_same_under_every_kernel():
    hashes = {kernel or "default": hashes_under(kernel) for kernel in KERNELS}
    assert len(set(hashes.values())) == 1, hashes
