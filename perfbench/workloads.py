"""The benchmark's workloads and the inputs each draws from its seed.

Each workload is a closed loop with one client: one fresh interpreter at
a time runs the whole workload, and the next starts when it has ended.

* ``s7-counts-fork``: ``sweep(7, "counts")`` on one forked worker per
  CPU in the affinity mask, and its JSON report.  It bypasses the
  q-polynomials and regions, and is the only workload on the fork,
  pickle and merge path.
* ``s8-stats``: ``invarr stats W --format json`` in process for a
  sample of S8, at the CLI's default depth (``with_region_oracle``),
  where the whole-group Bruhat and region scans dominate.  It is the
  only workload on the q-polynomials, the regions and the CLI.

The S7 sweep covers its whole group, so its inputs do not depend on the
seed.  The S8 sample does: it is uniform over S8 but stratified
by inversion number, the input property a record's cost follows most
closely, so that samples from different seeds cost about the same.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    depth: str
    kind: str  # "sweep" or "stats"

    def workers(self) -> int:
        """Forked sweep workers: one per CPU the process may run on (0: no sweep)."""
        return len(os.sched_getaffinity(0)) if self.kind == "sweep" else 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("s7-counts-fork", 7, "counts", "sweep"),
        Workload("s8-stats", 8, "with_region_oracle", "stats"),
    )
}

S8_SAMPLE_SIZE = 240


def inversions(word: tuple[int, ...]) -> int:
    return sum(a > b for a, b in itertools.combinations(word, 2))


def stratified_sample(n: int, size: int, seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """``size`` distinct (lexicographic rank, word) pairs of S_n.

    Each inversion number gets its share of the sample in proportion to
    how many permutations have it (largest remainders take the rounding),
    and the ranks inside each stratum are drawn at random from ``seed``.
    The result is shuffled, so records arrive in no particular order.
    """
    words = list(itertools.permutations(range(1, n + 1)))
    strata: dict[int, list[int]] = {}
    for rank, word in enumerate(words):
        strata.setdefault(inversions(word), []).append(rank)
    quota = {k: size * len(ranks) / len(words) for k, ranks in strata.items()}
    take = {k: int(q) for k, q in quota.items()}
    by_remainder = sorted(quota, key=lambda k: (take[k] - quota[k], k))
    for k in by_remainder[: size - sum(take.values())]:
        take[k] += 1
    rng = random.Random(seed)
    ranks = [r for k in sorted(strata) for r in rng.sample(strata[k], take[k])]
    rng.shuffle(ranks)
    return [(r, words[r]) for r in ranks]
