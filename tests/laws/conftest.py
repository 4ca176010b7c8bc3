"""Shared inputs of the cost laws: the suite's seeded corpus."""

from benchmarks.suite import corpus

#: every law runs at N and at 4N documents of this corpus
N = 200
SEED = 41


def documents(count: int) -> list[tuple[str, str]]:
    return corpus.documents(count, SEED)
