"""Test configuration shared by every test module.

Property tests run under a derandomized Hypothesis profile: the examples
are a fixed function of each test's source, so a tier-1 run is
reproducible and its length is bounded by `max_examples`.
"""

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without Hypothesis
    pass
else:
    settings.register_profile("tier1", derandomize=True, database=None,
                              deadline=None, max_examples=100)
    settings.load_profile("tier1")
