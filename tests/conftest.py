"""Suite-wide pytest configuration.

Tier-1 must be reproducible: green means green on every run. Hypothesis
draws fresh random examples each run by default, so a property that
fails on one rare input (INT_MIN / -1 was the one that bit) makes the
suite flaky. The ``ci`` profile derandomizes example generation; it is
what runs unless ``--hypothesis-profile`` names another (``default`` to
go exploring locally), and the CI workflow selects it explicitly.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)


def pytest_configure(config):
    if not config.getoption("hypothesis_profile", default=None):
        settings.load_profile("ci")
