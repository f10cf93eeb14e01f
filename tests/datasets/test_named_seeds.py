"""A named scene or graph is the same workload in every process.

Python salts ``hash(str)`` per process, so a default seed drawn from the
name's hash changed every synthetic dataset from one run to the next.  This
builds every registered scene and graph in two interpreters with different
hash salts and compares digests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

DIGEST_ALL = """
import hashlib
from repro.datasets import generate_scene, list_graphs, list_scenes, load_graph_matrix
digest = hashlib.sha256()
for name in list_scenes():
    digest.update(generate_scene(name, max_points=500).tobytes())
for name in list_graphs():
    csr = load_graph_matrix(name, max_rows=128)
    for array in (csr.indptr, csr.indices, csr.data):
        digest.update(array.tobytes())
print(digest.hexdigest())
"""


def digest_under(hash_seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", DIGEST_ALL], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_named_datasets_do_not_depend_on_the_hash_salt():
    assert digest_under("1") == digest_under("2")
