"""Suite-wide test configuration.

Tier-1 is a gate, so a property test must replay the same examples on
every run: one derandomized hypothesis profile for the whole tree (a
drawn counter-example belongs in a regression test, not in a flaky
run), with no per-example deadline — CI boxes stall.
"""

import pytest

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")


@pytest.fixture(scope="module")
def patch_whenever_possible():
    """Let every read after a write patch the postings index unless
    compaction or an unaccounted generation forbids it.

    A property's corpora hold a few dozen pairs, where a build is always
    the cheaper read, so under the cost rule they would never patch and
    never show a patched index's shapes (dead slots, shared segments).
    A module whose properties must reach those shapes uses this; the
    cost rule itself is ``tests/laws/test_patch_or_build_law.py``'s.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.ir.relations._PATCH_COST", 0)
        yield
