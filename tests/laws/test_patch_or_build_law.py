"""Patch-or-build law: the read after writes patches only while a patch
is the cheaper read.

A patch costs per term the journal touches, a build per pair, so the
journal is kept (and the next read patches) while
``touched × _PATCH_COST < pairs`` (the constant is fitted in
EXPERIMENTS E31).  Counted, never timed, at N documents as at 4N: the
read after one add patches, the read after a 50-add burst builds.
"""

import pytest

from repro.ir.relations import IrRelations
from repro.telemetry import telemetry_session

from benchmarks.suite import corpus
from tests.laws.conftest import SEED, N, documents

pytestmark = pytest.mark.kernels

BURST = 50


@pytest.fixture(params=[N, 4 * N], ids=["N", "4N"])
def relations(request):
    relations = IrRelations()
    for url, text in documents(request.param):
        relations.add_document(url, text)
    relations.postings_index()  # built: writes journal from here
    return relations


def read_after(relations: IrRelations, writes) -> tuple[int, int, int]:
    """``(patches, builds, rebuild counter)`` of the read after
    ``writes``."""
    for url, text in writes:
        relations.add_document(url, text)
    with telemetry_session() as telemetry:
        relations.postings_index()
        return (len(telemetry.tracer.find_all("ir.postings_patch")),
                len(telemetry.tracer.find_all("ir.postings_build")),
                telemetry.metrics.sum_counters("ir.postings_rebuilds"))


def test_the_read_after_one_add_patches(relations):
    writes = corpus.documents(1, SEED, "one")
    assert read_after(relations, writes) == (1, 0, 0)


def test_the_read_after_a_burst_builds(relations):
    writes = corpus.documents(BURST, SEED, "burst")
    assert read_after(relations, writes) == (0, 1, 1)


def test_either_read_answers_like_a_build(relations):
    for label, count in (("one", 1), ("burst", BURST)):
        read_after(relations, corpus.documents(count, SEED, label))
        built = relations._build_postings_index(relations.generation)
        served = relations.postings_index()
        assert dict(served.by_term.items()) == dict(built.by_term.items())
