"""Suffix array construction (prefix doubling, NumPy-vectorized).

The seeding substrate needs a suffix array twice: to derive the BWT
for the FM-index (the data structure behind BWA-MEM's seeding, which
the paper's real-world workloads come from) and as a brute-force
cross-check oracle in tests.  The first round sorts one ``int64`` key
per suffix that packs its first 24 symbols in base 6 (the sentinel is
0, real codes 1..5, and 0 pads past the sentinel), so most suffixes of
a genome are ranked apart before any doubling.  Each later round sorts
the pair ``(rank[i], rank[i + k])`` as the single key
``rank * (n + 1) + second + 1`` with one ``argsort``.  Prefix doubling
is O(n log^2 n) — ample for the multi-Mbp synthetic genomes this
reproduction indexes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["suffix_array", "SENTINEL"]

#: Sentinel symbol appended to the text before indexing; sorts before
#: every real symbol (codes are shifted up by one internally).
SENTINEL = -1

#: Symbols packed into the first-round key: 6**24 < 2**63.
_KEY_SYMBOLS = 24


def suffix_array(codes: np.ndarray) -> np.ndarray:
    """Suffix array of ``codes + [SENTINEL]``.

    Returns the permutation ``sa`` with ``sa[0] == len(codes)`` (the
    sentinel suffix) such that suffixes are in lexicographic order.
    Length is ``len(codes) + 1``.
    """
    codes = np.asarray(codes)
    n = codes.size + 1
    # Shift codes so the sentinel can be 0 and still sort first; the
    # zero padding past it never ties two distinct suffixes, because
    # they hold different symbols where the shorter one's sentinel is.
    text = np.zeros(n + _KEY_SYMBOLS - 1, dtype=np.int64)
    text[: n - 1] = codes
    text[: n - 1] += 1
    key = np.zeros(n, dtype=np.int64)
    for j in range(_KEY_SYMBOLS):
        key *= 6
        key += text[j : j + n]
    k = _KEY_SYMBOLS
    while True:
        sa = np.argsort(key)
        sorted_key = key[sa]
        rank = np.empty(n, dtype=np.int64)
        rank[sa[0]] = 0
        rank[sa[1:]] = np.cumsum(sorted_key[1:] != sorted_key[:-1])
        if rank[sa[-1]] == n - 1:
            return sa  # all ranks distinct: fully sorted
        # Next key: the pair (rank[i], rank[i + k]) with out-of-range
        # treated as -1, shifted to 0 so both fit one int64.
        second = np.zeros(n, dtype=np.int64)
        second[: n - k] = rank[k:] + 1
        key = rank * (n + 1) + second
        k *= 2


def naive_suffix_array(codes: np.ndarray) -> np.ndarray:
    """Quadratic oracle used only in tests."""
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.size
    text = np.concatenate([codes + 1, [0]])
    suffixes = sorted(range(n + 1), key=lambda i: tuple(text[i:]))
    return np.asarray(suffixes, dtype=np.int64)
