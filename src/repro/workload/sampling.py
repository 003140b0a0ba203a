"""Weighted draws that replay numpy's ``Generator.choice`` call for call.

Each ``rng.choice(v, k, replace=False, p=p)`` call validates ``p``, copies
it and builds a CDF before drawing, which costs tens of microseconds even
for a handful of draws; content synthesis makes one such call per document
and one per peer.  :class:`WeightedSampler` builds the first-round CDF
once per weight vector and reproduces numpy's without-replacement rounds
exactly: one ``rng.random(k)`` and a right-sided ``searchsorted`` on the
cached CDF and, only when that round repeats an index, numpy's own rounds
(zero the found entries, ``cumsum``, renormalise, draw the missing ones).
The draws consumed and the indices returned are numpy's, so a stream that
switches to the sampler stays bit-identical.

``tests/test_sampling_differential.py`` checks the equality, including the
generator position after the call, against the installed numpy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np

__all__ = ["WeightedSampler", "zipf_sampler"]


class WeightedSampler:
    """Draws from the categorical distribution ``p`` over ``range(len(p))``."""

    __slots__ = ("p", "cdf", "_n_positive")

    def __init__(self, p: np.ndarray) -> None:
        self.p = np.array(p, dtype=np.float64)
        cdf = np.cumsum(self.p)
        cdf /= cdf[-1]
        self.cdf = cdf
        self._n_positive = int(np.count_nonzero(self.p > 0))

    def one(self, rng: np.random.Generator) -> int:
        """``int(rng.choice(len(p), p=p))``."""
        return int(self.cdf.searchsorted(rng.random(), side="right"))

    def distinct(self, rng: np.random.Generator, k: int) -> List[int]:
        """``rng.choice(len(p), size=k, replace=False, p=p).tolist()``."""
        if k > self._n_positive:
            raise ValueError("Fewer non-zero entries in p than size")
        found = self.cdf.searchsorted(rng.random(k), side="right").tolist()
        if len(set(found)) < k:
            found = self._collision_rounds(rng, found, k)
        return found

    def _collision_rounds(
        self, rng: np.random.Generator, new: List[int], k: int
    ) -> List[int]:
        # numpy's loop, entered with the first round's draws already made:
        # keep each round's first occurrences in draw order, then redraw
        # the missing ones from p with every found entry zeroed.
        found: List[int] = []
        p = self.p.copy()
        while True:
            found.extend(dict.fromkeys(new))
            if len(found) == k:
                return found
            x = rng.random(k - len(found))
            p[found] = 0
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            new = cdf.searchsorted(x, side="right").tolist()


@lru_cache(maxsize=16)
def zipf_sampler(n: int, s: float) -> WeightedSampler:
    """Sampler of rank-Zipf indices in ``[0, n)``: P(i) ~ (i+1)^-s.

    The cache is small on purpose: the trace generator asks for one size
    per semantic class at a time, and each size's CDF is O(n) memory.
    """
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    return WeightedSampler(weights / weights.sum())
