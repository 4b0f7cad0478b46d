"""Partition combinatorics behind the diagonal factors.

Brute-force oracles for the cyclic-congruence partition counts, for the
chains of indices produced by the simplified recurrences, and for the
decomposition of odd-parity partition tuples into a strictly decreasing
part plus even partitions. Each count has an independent product-formula
route through :mod:`mdslab.series`.
"""

from __future__ import annotations

import itertools

from .qlaurent import QLaurent
from .series import FactorList, MultiSeries, expand_factors

Partition = tuple[int, ...]


def _trim(p) -> Partition:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


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


def conjugate(p: Partition) -> Partition:
    p = _trim(p)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= k) for k in range(1, p[0] + 1))


def count_partition_tuples(n: int, sums: tuple[int, ...]) -> int:
    """Partitions whose entries, read cyclically through the n congruence
    classes, have the prescribed class sums.

    Entry j (counting from zero) lands in class j mod n; ``sums`` lists the
    class totals starting with the class of the first entry.
    """
    sums = tuple(sums)
    if len(sums) != n:
        raise ValueError("need one sum per congruence class")
    total = sum(sums)
    count = 0
    for p in _partitions_with_sum(total):
        if len(p) > total:
            continue
        acc = [0] * n
        for j, entry in enumerate(p):
            acc[j % n] += entry
        if tuple(acc) == sums:
            count += 1
    return count


def count_partition_ntuples(n: int, sums: tuple[int, ...]) -> int:
    """n-tuples of partitions with class sums taken along shifted cycles:
    entry j of the i-th partition (both from zero) lands in class i + j mod n.
    """
    sums = tuple(sums)
    total = sum(sums)
    per = [list(_iter_partitions_upto(total))] * n
    count = 0
    for combo in itertools.product(*per):
        if sum(sum(p) for p in combo) != total:
            continue
        acc = [0] * n
        for i, p in enumerate(combo):
            for j, entry in enumerate(p):
                acc[(i + j) % n] += entry
        if tuple(acc) == sums:
            count += 1
    return count


def _iter_partitions_upto(total: int):
    for t in range(total + 1):
        yield from _partitions_with_sum(t)


def partition_product_gf(n: int, bound: int) -> MultiSeries:
    """Product-formula route for :func:`count_partition_tuples`.

    One factor per column shape: a column of height mn + j covers every
    class m times and classes 0..j-1 once more.
    """
    fl = FactorList()
    m = 0
    while m * n + 1 <= bound:
        for j in range(1, n + 1):
            alpha = tuple(m + (1 if k < j else 0) for k in range(n))
            if sum(alpha) <= bound:
                fl.add(alpha, 0, 1)
        m += 1
    return expand_factors(fl, n, bound)


def partition_tuple_product_gf(n: int, bound: int) -> MultiSeries:
    """Product-formula route for :func:`count_partition_ntuples`:
    the same columns, started at every cyclic offset."""
    fl = FactorList()
    m = 0
    while m * n + 1 <= bound:
        for i in range(n):
            for length in range(1, n + 1):
                alpha = [m] * n
                for t in range(length):
                    alpha[(i + t) % n] += 1
                if sum(alpha) <= bound:
                    fl.add(tuple(alpha), 0, 1)
        m += 1
    return expand_factors(fl, n, bound)


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


def chain_to_deltas(chain, n: int):
    """Half-tuple of partitions recording the drop pattern of a chain."""
    n1 = n + 1
    ell = len(chain) - 1
    deltas = []
    for i in range(0, n1, 2):
        col = []
        for j in range(1, ell + 1):
            col.append(chain[j - 1][(i + j - 1) % n1] - chain[j][(i + j - 2) % n1])
        deltas.append(_trim(col))
    return tuple(deltas)


def deltas_to_chain(deltas, n: int, ell: int):
    """Inverse of :func:`chain_to_deltas`: rebuild every index by the
    telescoping sum a_i^(j) = sum_{k>j} delta_{i+j+2-2k}^(k)."""
    n1 = n + 1

    def delta_at(i: int, k: int) -> int:
        col = deltas[(i % n1) // 2]
        return col[k - 1] if 1 <= k <= len(col) else 0

    rows = []
    for j in range(ell + 1):
        row = []
        for i in range(n1):
            if i % 2 == j % 2:
                row.append(sum(delta_at(i + j + 2 - 2 * k, k) for k in range(j + 1, ell + 1)))
            else:
                row.append(None)
        rows.append(row)
    # opposite-parity slots are frozen copies of the row above
    for j in range(1, ell + 1):
        for i in range(n1):
            if rows[j][i] is None:
                rows[j][i] = rows[j - 1][i]
    # the first row's remaining slots are fixed by the boundary shape
    for i in range(n1):
        if rows[0][i] is None:
            rows[0][i] = 2 * rows[0][0]
    return tuple(tuple(r) for r in rows)


def gamma_decomposition(pt) -> tuple[Partition, tuple[Partition, ...]]:
    """Split a parity-synchronized tuple of partitions as delta_i =
    even_i + gamma* with gamma strictly decreasing.

    Level j is odd or even simultaneously across the tuple. The conjugate
    of a strictly decreasing partition drops by exactly one part at a
    time, so its parity flips precisely at the parts; gamma is therefore
    read off as the positions where the level parity changes (padding with
    even levels below the tuple's depth).
    """
    pt = tuple(_trim(p) for p in pt)
    depth = max((len(p) for p in pt), default=0)
    parity = []
    for j in range(depth):
        seen = {(p[j] if j < len(p) else 0) % 2 for p in pt}
        if len(seen) > 1:
            raise ValueError(f"level {j + 1} mixes parities across the tuple")
        parity.append(seen.pop())
    parity.append(0)
    gamma = tuple(
        j + 1 for j in range(depth - 1, -1, -1) if parity[j] != parity[j + 1]
    )
    gstar = conjugate(gamma)
    evens = []
    for p in pt:
        adj = [p[j] - (gstar[j] if j < len(gstar) else 0) for j in range(len(p))]
        if len(gstar) > len(p) and any(gstar[len(p):]):
            raise ValueError("conjugate part exceeds the partition length")
        if any(x < 0 for x in adj) or any(x % 2 for x in adj):
            raise ValueError("subtracting the conjugate does not leave even parts")
        if any(adj[k] < adj[k + 1] for k in range(len(adj) - 1)):
            raise ValueError("subtracting the conjugate breaks monotonicity")
        evens.append(_trim(adj))
    return gamma, tuple(evens)


def p_lowest_term_product_route(n: int, amax: int) -> list[int]:
    """Diagonal coefficients of the q^0 part of the residue product.

    This is the combinatorial prediction for the lowest coefficient of
    each p_a; it comes from the beta <= 0 factors alone.
    """
    from .residue import build_R, n_even_vars

    k = n_even_vars(n)
    fl = build_R(n, amax * k).restrict(lambda alpha, beta: beta == 0)
    diag = expand_factors(fl, k, amax * k).diag_part()
    return [series_int_coeff(diag, (d,)) for d in range(amax + 1)]
