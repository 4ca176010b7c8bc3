"""Suite-wide test configuration.

Tier-1 is a gate, so a property test must replay the same examples on
every run: one derandomized hypothesis profile for the whole tree (a
drawn counter-example belongs in a regression test, not in a flaky
run), with no per-example deadline — CI boxes stall.
"""

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")

