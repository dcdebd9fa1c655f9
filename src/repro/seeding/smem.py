"""Maximal-exact-match seeding (BWA-MEM style, simplified).

BWA-MEM seeds extension with super-maximal exact matches found on the
FM-index.  We implement the forward-greedy variant: for each query
position, grow the longest exact match rightwards via backward search
on the *reversed* reference (prepending a symbol in reverse space ==
appending in forward space), emit it if long enough, and restart just
past it.  This finds a maximal-match cover of the read — the property
that matters downstream, because seed endpoints are what determine the
extension-job length distributions of Fig. 2.

Two things keep the walk cheap without changing a seed.  A jump table
built with the index (Bowtie's ``ftab``) holds the backward-search
state after every 8-mer of bases, so a match starts from one lookup
instead of eight steps.  And ``seed`` locates all the matches it keeps
in one LF walk over their rows, not one walk per match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fm_index import FMIndex, SARange

__all__ = ["Seed", "SmemSeeder"]

#: Codes resolved by one jump-table lookup (Bowtie's ``ftab``): 4**8
#: entries, 0.6 MB with ``uint32`` range bounds.
_K = 8


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
        fm = self._fm_rev = FMIndex(self.reference[::-1].copy())
        self._step = (fm.C.tolist(), fm._occ_checkpoints.item, fm._occ_inblock.item, fm.occ_rate)
        length, lo, hi = _jump_table(fm)
        self._jump = (length.item, lo.item, hi.item)

    def _extend(self, codes: list[int], qpos: int) -> tuple[int, int, int]:
        """Grow the match of ``codes[qpos:]`` one symbol at a time.

        Returns ``(length, lo, hi)``: the SA range ``[lo, hi)`` of the
        maximal match in the reversed reference (all rows when
        ``length == 0``).  When the first ``_K`` codes are all bases,
        the walk starts from the jump table's state after them.
        """
        C, checkpoint, inblock, rate = self._step
        lo, hi = 0, self._fm_rev.n + 1
        length = 0
        head = codes[qpos : qpos + _K]
        if len(head) == _K and max(head) < 4:
            key = 0
            for c in head:
                key = key << 2 | c
            jump_length, jump_lo, jump_hi = self._jump
            length, lo, hi = jump_length(key), jump_lo(key), jump_hi(key)
            if length < _K:
                return length, lo, hi
        for c in itertools.islice(codes, qpos + length, None):
            if c >= 4:  # N never matches exactly
                break
            nlo = C[c] + checkpoint(lo // rate, c) + inblock(lo, c)
            nhi = C[c] + checkpoint(hi // rate, c) + inblock(hi, c)
            if nlo >= nhi:
                break
            lo, hi = nlo, nhi
            length += 1
        return length, lo, hi

    def _ref_starts(self, rev_positions: np.ndarray, length: int | np.ndarray) -> np.ndarray:
        """Reference starts of matches of *length* at *rev_positions*.

        A match starting at p in the reversed text spans
        ``rev[p : p+len]``, i.e. ``ref[n - p - len : n - p]``.
        """
        return self.reference.size - rev_positions - length

    def longest_match(self, query: np.ndarray, qpos: int) -> tuple[int, np.ndarray]:
        """Longest exact match of ``query[qpos:...]`` and its ref hits.

        Returns ``(length, ref_positions)``; positions are of the last
        range *before* the match broke (i.e. of the maximal match),
        sorted, at most ``max_hits + 1`` of them.
        """
        length, lo, hi = self._extend(np.asarray(query, dtype=np.uint8).tolist(), qpos)
        if length == 0:
            return 0, np.empty(0, dtype=np.int64)
        rev_positions = self._fm_rev.locate(SARange(lo, hi), max_hits=self.max_hits + 1)
        return length, np.sort(self._ref_starts(rev_positions, length))

    def seed(self, query: np.ndarray) -> list[Seed]:
        """Maximal-match cover of *query* as :class:`Seed` records.

        Only matches that are kept are located: at least
        ``min_seed_len`` long and with 1 to ``max_hits`` hits.  The
        rows of all kept matches LF-walk together, once per call.
        Seeds come out by ``qpos``, then by ``rpos``.
        """
        codes = np.asarray(query, dtype=np.uint8).tolist()
        kept = []
        qpos = 0
        while qpos + self.min_seed_len <= len(codes):
            length, lo, hi = self._extend(codes, qpos)
            if length >= self.min_seed_len and 0 < hi - lo <= self.max_hits:
                kept.append((qpos, lo, hi - lo, length))
                qpos += max(length // 2, 1)  # overlap re-seeding, as BWA-MEM
            else:
                qpos += max(length, 1)
        if not kept:
            return []
        qposs, los, counts, lengths = np.array(kept, dtype=np.int64).T
        # Match k's rows are los[k] .. los[k] + counts[k] - 1.
        match = np.repeat(np.arange(len(kept)), counts)
        starts = np.cumsum(counts) - counts
        rows = np.arange(match.size, dtype=np.int64) + (los - starts)[match]
        rpos = self._ref_starts(self._fm_rev._locate_rows(rows), lengths[match])
        order = np.lexsort((rpos, match))
        return [
            Seed(qpos=q, rpos=r, length=n)
            for q, r, n in zip(qposs[match[order]].tolist(), rpos[order].tolist(),
                               lengths[match[order]].tolist())
        ]


def _jump_table(fm: FMIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward-search state after each ``_K``-mer of bases.

    Key ``k`` spells its codes in consumption order, the first code
    the most significant base-4 digit.  Entry ``k`` holds the
    ``(length, lo, hi)`` that the per-symbol walk of
    :meth:`SmemSeeder._extend` reaches over those codes: ``length``
    is below ``_K`` where the walk broke, and ``[lo, hi)`` is the
    range before the break.  Level ``i`` holds the ``4**i`` states
    after ``i`` codes: one vectorized backward step by each base from
    every state of level ``i - 1``.
    """
    bounds = np.min_scalar_type(fm.n + 1)
    length = np.zeros(1, dtype=np.uint8)
    lo = np.zeros(1, dtype=bounds)
    hi = np.full(1, fm.n + 1, dtype=bounds)
    C, checkpoints, inblock, rate = fm.C.tolist(), fm._occ_checkpoints, fm._occ_inblock, fm.occ_rate
    for i in range(_K):
        # Row s, column c: state s then code c, i.e. key 4 * s + c.
        nlo = np.empty((lo.size, 4), dtype=bounds)
        nhi = np.empty((lo.size, 4), dtype=bounds)
        for new, old in ((nlo, lo), (nhi, hi)):
            block = old // rate
            for c in range(4):
                new[:, c] = C[c] + checkpoints[block, c] + inblock[old, c]
        step = (length == i)[:, None] & (nlo < nhi)
        length = (length[:, None] + step).reshape(-1)
        lo = np.where(step, nlo, lo[:, None]).reshape(-1)
        hi = np.where(step, nhi, hi[:, None]).reshape(-1)
    return length, lo, hi
