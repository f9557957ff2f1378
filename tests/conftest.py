"""Shared fixtures: the expensive whole-group sweeps and the oracle suite,
built once per session.

Several test modules consume the same S6 and S7 sweeps and the same
oracle comparisons; building them here keeps total runtime down and lets
the acceptance tests charge the construction cost against their stated
time budgets.
"""

import time
from dataclasses import dataclass

import pytest

from invarr import verify


@dataclass(frozen=True)
class TimedSweep:
    report: verify.SweepReport
    elapsed: float


@pytest.fixture(scope="session")
def small_oracle_sweeps():
    """Full-depth sweeps of S1..S5; the region oracle runs on every record."""
    start = time.perf_counter()
    reports = {n: verify.sweep(n, depth="with_region_oracle") for n in range(1, 6)}
    return reports, time.perf_counter() - start


@pytest.fixture(scope="session")
def sweep6_oracle() -> TimedSweep:
    """All of S6 at full depth; every record carries the region oracle."""
    start = time.perf_counter()
    report = verify.sweep(6, depth="with_region_oracle")
    return TimedSweep(report, time.perf_counter() - start)


@pytest.fixture(scope="session")
def sweep7_polys() -> TimedSweep:
    """All of S7 with polynomials; every record carries its distance enumerator."""
    start = time.perf_counter()
    report = verify.sweep(7, depth="polys")
    return TimedSweep(report, time.perf_counter() - start)


@pytest.fixture(scope="session")
def oracle_checks_at_caps():
    """``oracle_checks(9)``: every comparison clamped to its own cap."""
    start = time.perf_counter()
    results = verify.oracle_checks(9)
    return results, time.perf_counter() - start
