"""Maximal-exact-match seeding (BWA-MEM style, simplified).

BWA-MEM seeds extension with super-maximal exact matches found on the
FM-index.  We implement the forward-greedy variant: for each query
position, grow the longest exact match rightwards via backward search
on the *reversed* reference (prepending a symbol in reverse space ==
appending in forward space), emit it if long enough, and restart just
past it.  This finds a maximal-match cover of the read — the property
that matters downstream, because seed endpoints are what determine the
extension-job length distributions of Fig. 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fm_index import FMIndex, SARange

__all__ = ["Seed", "SmemSeeder"]


@dataclass(frozen=True)
class Seed:
    """One exact match: ``query[qpos:qpos+length] == ref[rpos:rpos+length]``."""

    qpos: int
    rpos: int
    length: int

    @property
    def qend(self) -> int:
        return self.qpos + self.length

    @property
    def rend(self) -> int:
        return self.rpos + self.length

    @property
    def diagonal(self) -> int:
        return self.rpos - self.qpos


class SmemSeeder:
    """Greedy maximal-exact-match seeder on an FM-index.

    Parameters
    ----------
    reference:
        Reference codes; an FM-index of its reverse is built once.
    min_seed_len:
        Matches shorter than this are noise and dropped (BWA-MEM's
        ``-k``, default 19).
    max_hits:
        Seeds occurring more often than this are repeats and skipped
        (BWA-MEM's ``-c`` occurrence cap).
    """

    def __init__(self, reference: np.ndarray, *, min_seed_len: int = 19, max_hits: int = 16):
        self.reference = np.asarray(reference, dtype=np.uint8)
        if min_seed_len < 1:
            raise ValueError("min_seed_len must be positive")
        if max_hits < 1:
            raise ValueError("max_hits must be positive")
        self.min_seed_len = min_seed_len
        self.max_hits = max_hits
        self._fm_rev = FMIndex(self.reference[::-1].copy())

    def _extend(self, codes: list[int], qpos: int) -> tuple[int, int, int]:
        """Grow the match of ``codes[qpos:]`` one symbol at a time.

        Returns ``(length, lo, hi)``: the SA range ``[lo, hi)`` of the
        maximal match in the reversed reference (all rows when
        ``length == 0``).
        """
        fm = self._fm_rev
        C = fm.C.tolist()
        checkpoint, inblock, rate = fm._occ_checkpoints.item, fm._occ_inblock.item, fm.occ_rate
        lo, hi = 0, fm.n + 1
        length = 0
        for c in itertools.islice(codes, qpos, None):
            if c >= 4:  # N never matches exactly
                break
            nlo = C[c] + checkpoint(lo // rate, c) + inblock(lo, c)
            nhi = C[c] + checkpoint(hi // rate, c) + inblock(hi, c)
            if nlo >= nhi:
                break
            lo, hi = nlo, nhi
            length += 1
        return length, lo, hi

    def _positions(self, lo: int, hi: int, length: int) -> np.ndarray:
        """Sorted reference starts of the first ``max_hits + 1`` rows."""
        rev_positions = self._fm_rev.locate(SARange(lo, hi), max_hits=self.max_hits + 1)
        # A match starting at p in the reversed text spans
        # rev[p : p+len], i.e. ref[n - p - len : n - p].
        return np.sort(self.reference.size - rev_positions - length)

    def longest_match(self, query: np.ndarray, qpos: int) -> tuple[int, np.ndarray]:
        """Longest exact match of ``query[qpos:...]`` and its ref hits.

        Returns ``(length, ref_positions)``; positions are of the last
        range *before* the match broke (i.e. of the maximal match).
        """
        length, lo, hi = self._extend(np.asarray(query, dtype=np.uint8).tolist(), qpos)
        if length == 0:
            return 0, np.empty(0, dtype=np.int64)
        return length, self._positions(lo, hi, length)

    def seed(self, query: np.ndarray) -> list[Seed]:
        """Maximal-match cover of *query* as :class:`Seed` records.

        Only matches that are kept are located: at least
        ``min_seed_len`` long and with 1 to ``max_hits`` hits.
        """
        codes = np.asarray(query, dtype=np.uint8).tolist()
        seeds: list[Seed] = []
        qpos = 0
        while qpos + self.min_seed_len <= len(codes):
            length, lo, hi = self._extend(codes, qpos)
            if length >= self.min_seed_len and 0 < hi - lo <= self.max_hits:
                for rpos in self._positions(lo, hi, length).tolist():
                    seeds.append(Seed(qpos=qpos, rpos=rpos, length=length))
                qpos += max(length // 2, 1)  # overlap re-seeding, as BWA-MEM
            else:
                qpos += max(length, 1)
        return seeds
