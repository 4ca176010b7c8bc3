"""Shared fixtures for the cluster-execution suite.

Every test here runs under the thread-leak check: neither cluster
backend starts a thread, so a test that leaves any new live thread
behind, daemon or not, fails.  A test that starts its own threads
(racing callers) must join them.  The corpus helpers mirror
``tests/ir/test_distributed``.
"""

import random
import threading
import time

import pytest

from repro.ir.distributed import DistributedIndex
from repro.monetdb.server import Cluster


@pytest.fixture(autouse=True)
def no_thread_leaks():
    """Fail any test that leaks a live thread, daemon or not."""
    before = set(threading.enumerate())
    yield
    leaked = set()
    # a joined thread can still be unwinding for a moment
    for _ in range(100):
        leaked = {thread for thread in threading.enumerate()
                  if thread not in before and thread.is_alive()}
        if not leaked:
            break
        time.sleep(0.01)
    assert not leaked, f"leaked threads: {sorted(t.name for t in leaked)}"


def corpus(documents=60, seed=5):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(80)]
    weights = [1.0 / (i + 1) for i in range(80)]
    docs = []
    for d in range(documents):
        words = rng.choices(vocab, weights=weights, k=40)
        if d % 6 == 0:
            words += ["trophy", "melbourne"]
        docs.append((f"http://site/p{d}", " ".join(words)))
    return docs


def build_index(cluster_size=4, fault_injector=None, documents=60):
    index = DistributedIndex(Cluster(cluster_size), fragment_count=4,
                             fault_injector=fault_injector)
    index.add_documents(corpus(documents))
    return index
