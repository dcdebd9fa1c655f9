"""FM-index: backward search with a two-level rank table and a sampled SA.

The classic compressed full-text index behind BWT-based read mappers
[38].  ``occ(c, k)``, the count of symbol ``c`` in ``bwt[:k]``, is two
table lookups: an ``int64`` checkpoint every ``occ_rate`` rows plus an
in-block rank table ``occ_inblock[k, c]`` that counts ``c`` from the
last checkpoint up to row ``k``.  The in-block counts never exceed
``occ_rate - 1``, so they are stored in the smallest unsigned dtype that
holds that (``uint8`` for rates up to 256, ``uint16`` up to 65,536),
and ``backward_extend`` prepends one symbol to the current match in
O(1).  ``locate`` resolves text positions through a
sampled suffix array: one LF walk moves any set of rows together, each
to its nearest sample, so a caller can resolve the rows of many ranges
at once — the same structure real aligners use, at test-friendly
sampling rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bwt import bwt_from_sa
from .suffix_array import SENTINEL, suffix_array

__all__ = ["FMIndex", "SARange"]

#: Symbols: codes 0..4 (A,C,G,T,N); the sentinel is handled separately.
_N_SYMBOLS = 5


@dataclass(frozen=True)
class SARange:
    """A half-open suffix-array interval ``[lo, hi)`` of matches."""

    lo: int
    hi: int

    @property
    def count(self) -> int:
        return max(self.hi - self.lo, 0)

    @property
    def empty(self) -> bool:
        return self.count == 0


class FMIndex:
    """FM-index over a code sequence.

    Parameters
    ----------
    codes:
        The text (uint8 codes 0..4).
    occ_rate:
        Row spacing of occurrence-count checkpoints.
    sa_sample_rate:
        Keep every ``sa_sample_rate``-th suffix-array entry for
        :meth:`locate`.
    """

    def __init__(self, codes: np.ndarray, *, occ_rate: int = 64, sa_sample_rate: int = 8):
        codes = np.asarray(codes, dtype=np.uint8)
        if occ_rate < 1 or sa_sample_rate < 1:
            raise ValueError("sampling rates must be >= 1")
        self.n = int(codes.size)
        self.occ_rate = occ_rate
        self.sa_sample_rate = sa_sample_rate
        sa = suffix_array(codes)
        self._bwt = bwt_from_sa(codes, sa)
        # C[c]: rows whose suffix starts with a symbol < c (sentinel
        # occupies row 0).
        counts = np.bincount(codes, minlength=_N_SYMBOLS)
        self.C = np.concatenate([[1], 1 + np.cumsum(counts)[:-1]]).astype(np.int64)
        self._occ_checkpoints, self._occ_inblock = _rank_tables(self._bwt, occ_rate)
        # Sampled SA for locate: -1 marks a row without a sample.  Held
        # in the smallest signed dtype that holds n (int32 up to 2**31).
        mask = (sa % sa_sample_rate == 0) | (sa == self.n)
        self._sampled = np.where(mask, sa, -1).astype(np.min_scalar_type(-self.n - 1))

    # ----- core operations ---------------------------------------------

    def occ(self, c: int, k: int) -> int:
        """Occurrences of symbol *c* in ``bwt[:k]``."""
        return (self._occ_checkpoints.item(k // self.occ_rate, c)
                + self._occ_inblock.item(k, c))

    def lf(self, row: int) -> int:
        """LF mapping of one row (sentinel row maps to row 0)."""
        c = int(self._bwt[row])
        if c == SENTINEL:
            return 0
        return int(self.C[c]) + self.occ(c, row)

    def backward_extend(self, rng: SARange, c: int) -> SARange:
        """Match range of ``c + current_pattern`` from that of the
        current pattern (one backward-search step)."""
        if not 0 <= c < _N_SYMBOLS:
            raise ValueError(f"symbol out of range: {c}")
        lo = int(self.C[c]) + self.occ(c, rng.lo)
        hi = int(self.C[c]) + self.occ(c, rng.hi)
        return SARange(lo, hi)

    def full_range(self) -> SARange:
        """The range matching the empty pattern (all rows)."""
        return SARange(0, self.n + 1)

    def search(self, pattern: np.ndarray) -> SARange:
        """Backward search: SA range of all occurrences of *pattern*."""
        rng = self.full_range()
        for c in np.asarray(pattern, dtype=np.uint8)[::-1]:
            rng = self.backward_extend(rng, int(c))
            if rng.empty:
                return rng
        return rng

    def count(self, pattern: np.ndarray) -> int:
        return self.search(pattern).count

    def locate(self, rng: SARange, max_hits: int | None = None) -> np.ndarray:
        """Text positions of the matches in *rng* (sorted)."""
        hi = rng.hi if max_hits is None else min(rng.hi, rng.lo + max_hits)
        return np.sort(self._locate_rows(np.arange(rng.lo, max(hi, rng.lo), dtype=np.int64)))

    def _locate_rows(self, rows: np.ndarray) -> np.ndarray:
        """Text position of each of *rows*, in row order.

        Every row LF-walks at once; a row leaves the walk when it
        reaches a sampled suffix-array entry.  *rows* is walked in
        place.
        """
        out = self._sampled[rows].astype(np.int64)
        steps = 0
        pending = np.flatnonzero(out < 0)
        while pending.size:
            steps += 1
            rows[pending] = self._lf_rows(rows[pending])
            hit = self._sampled[rows[pending]]
            found = hit >= 0
            out[pending[found]] = hit[found] + steps
            pending = pending[~found]
        return out

    def _lf_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`lf` over an array of rows."""
        c = self._bwt[rows].astype(np.intp)
        sentinel = c == SENTINEL
        c[sentinel] = 0
        nxt = (self.C[c] + self._occ_checkpoints[rows // self.occ_rate, c]
               + self._occ_inblock[rows, c])
        nxt[sentinel] = 0
        return nxt


def _rank_tables(bwt: np.ndarray, rate: int) -> tuple[np.ndarray, np.ndarray]:
    """Occurrence checkpoints and the in-block rank table of *bwt*.

    ``checkpoints[b, c]`` counts ``c`` in ``bwt[:b * rate]`` and
    ``inblock[k, c]`` counts it in ``bwt[(k // rate) * rate : k]``, for
    every ``k`` in ``[0, len(bwt)]``.  Built one symbol at a time from
    per-block sums and a small-dtype cumsum, so no temporary is wider
    than the in-block dtype.
    """
    m = bwt.size
    n_blocks = m // rate + 1
    dtype = np.min_scalar_type(rate - 1)
    checkpoints = np.zeros((n_blocks, _N_SYMBOLS), dtype=np.int64)
    inblock = np.empty((m + 1, _N_SYMBOLS), dtype=dtype)
    blocks = np.zeros((n_blocks, rate), dtype=dtype)
    flat = blocks.reshape(-1)
    for c in range(_N_SYMBOLS):
        flat[:m] = bwt == c
        np.cumsum(blocks.sum(axis=1, dtype=np.int64)[:-1], out=checkpoints[1:, c])
        # Exclusive in-block prefix count.  The inclusive cumsum can
        # reach ``rate`` and wrap the dtype; subtracting the block back
        # out wraps it home, since the exclusive count is < ``rate``.
        inblock[:, c] = (np.cumsum(blocks, axis=1, dtype=dtype) - blocks).reshape(-1)[: m + 1]
    return checkpoints, inblock
