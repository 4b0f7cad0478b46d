"""Partition combinatorics behind the diagonal factors.

Brute-force counts of partitions and of n-tuples of partitions by their
cyclic-congruence class sums, binned in one pass over every tuple up to a
total (:func:`partition_class_counts`), and the chains of indices produced
by the simplified recurrences. Each partition count has an independent
product-formula route through :mod:`mdslab.series`. The chain counts are
compared with the q^0 part of the residue product's diagonal: every beta
is >= 0, so that part is the product of the beta = 0 factors, read from
the diagonal the residue pipeline expands.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .series import MultiSeries, expand_factors, progressions


def _partitions_with_sum(total: int, max_part: int | None = None):
    """Weakly decreasing positive sequences with the given sum."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions_with_sum(total - first, first):
            yield (first,) + rest


def partition_class_counts(n: int, size: int, bound: int) -> dict[tuple[int, ...], int]:
    """Number of ``size``-tuples of partitions per vector of class sums, for
    every vector of total at most ``bound``.

    Entry j of the i-th partition (both from zero) lands in class i + j mod
    n: size 1 reads one partition cyclically through the n congruence
    classes, size n reads an n-tuple along shifted cycles. Every tuple is
    enumerated once and binned by its sums; absent vectors count zero.
    """
    counts: dict[tuple[int, ...], int] = {}
    acc = [0] * n

    def rec(i: int, budget: int) -> None:
        if i == size:
            key = tuple(acc)
            counts[key] = counts.get(key, 0) + 1
            return
        for p in _iter_partitions_upto(budget):
            for j, entry in enumerate(p):
                acc[(i + j) % n] += entry
            rec(i + 1, budget - sum(p))
            for j, entry in enumerate(p):
                acc[(i + j) % n] -= entry

    rec(0, bound)
    return counts


def _iter_partitions_upto(total: int):
    for t in range(total + 1):
        yield from _partitions_with_sum(t)


def partition_product_gf(n: int, size: int, bound: int) -> MultiSeries:
    """Product-formula route for :func:`partition_class_counts`.

    One factor per column shape: the columns of the i-th partition start
    at class i, for every offset i < size, and a column of height mn + j
    covers every class m times and the j classes from i on once more.
    """
    fams = Counter(
        (tuple(int((c - i) % n < length) for c in range(n)), 0)
        for i in range(size)
        for length in range(1, n + 1)
    )
    return expand_factors(progressions(fams, (1,) * n, bound), n, bound)


def series_int_coeff(s: MultiSeries, exp: tuple[int, ...]) -> int:
    c = s.coeff(exp)
    return c.constant_coeff() if c else 0


# -- reduction chains ------------------------------------------------------


def enumerate_reduction_chains(n: int, a: int, simplified: bool = True):
    """All index chains from the near-diagonal row down to zero.

    Rows alternate which parity class of positions may move; a moving
    entry at position i is pinned between s/2 and s - a_i with
    s = a_{i-1} + a_{i+1}, and the starting entry must be at least s/2.
    With ``simplified`` False the inequality condition is replaced by the
    reconstructed two-sided majorization a_i^(j) >= a_{i±1}^(j+1); the two
    readings must enumerate the same chains.
    """
    if n % 2 == 0:
        raise ValueError("chains are defined for n odd")
    n1 = n + 1
    start = tuple(a if i % 2 == 0 else 2 * a for i in range(n1))
    chains = []

    def extend(rows):
        row = rows[-1]
        if all(x == 0 for x in row):
            chains.append(tuple(rows))
            return
        j = len(rows) - 1
        moving = [i for i in range(n1) if i % 2 != j % 2]
        ranges = []
        for i in moving:
            s = row[i - 1] + row[(i + 1) % n1]
            if s % 2 or 2 * row[i] < s:
                return
            lo, hi = max(0, s - row[i]), s // 2
            ranges.append(range(hi, lo - 1, -1))
        for choice in itertools.product(*ranges):
            if len(set(x % 2 for x in choice)) > 1:
                continue  # pairwise sums of the moving class must be even
            nxt = list(row)
            for i, v in zip(moving, choice):
                nxt[i] = v
            nxt = tuple(nxt)
            if sum(nxt) >= sum(row) and any(nxt):
                continue
            if not simplified and not _majorized(row, nxt, moving, n1):
                continue
            extend(rows + [nxt])

    extend([start])
    return chains


def _majorized(row, nxt, moving, n1) -> bool:
    # stationary entries dominate their new neighbors on the next row
    for i in range(n1):
        if i in moving:
            continue
        if row[i] < nxt[i - 1] or row[i] < nxt[(i + 1) % n1]:
            return False
    return True


def count_reduction_chains(n: int, a: int, simplified: bool = True) -> int:
    return len(enumerate_reduction_chains(n, a, simplified))

