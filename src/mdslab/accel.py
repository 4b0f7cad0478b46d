"""Batched quadratic residue symbols over a sweep of monic polynomials.

The L-function and moment suites evaluate many residue symbols (f/g) while
f runs over all monic polynomials of one degree. The sweep factors g once,
reduces the whole batch of f's modulo each prime with uniform vectorized
long division, and looks the residues up in per-prime character tables.
This is the factorization route through the symbol; the tests check it
against the Euclidean-reciprocity route ``Fq.residue_symbol``.
"""

from __future__ import annotations

import numpy as np

from .fqpoly import Fq, Poly, degree

# per-prime character tables, keyed by (q, p)
_char_tables: dict[tuple[int, Poly], np.ndarray] = {}
# coefficient rows of every monic polynomial of degree d, keyed by (q, d)
_monic_cache: dict[tuple[int, int], np.ndarray] = {}


def _char_table(fq: Fq, p: Poly) -> np.ndarray:
    # chi_p over all residues mod p, indexed base-q by coefficients.
    # The squares of the residue field are exactly {r^2 : r != 0}, so one
    # multiplication per residue marks them; the rest are non-squares.
    key = (fq.q, p)
    table = _char_tables.get(key)
    if table is not None:
        return table
    dp = degree(p)
    q = fq.q
    size = q**dp
    idx = np.arange(size)
    residues = np.empty((size, dp), dtype=np.int64)
    for k in range(dp):
        residues[:, k] = (idx // q**k) % q
    squares = np.zeros((size, 2 * dp - 1), dtype=np.int64)
    for i in range(dp):
        for j in range(dp):
            squares[:, i + j] += residues[:, i] * residues[:, j]
    squares %= q
    rem = _mod_batch(q, squares, p)
    sidx = np.zeros(size, dtype=np.int64)
    for k in range(dp):
        sidx += rem[:, k] * q**k
    table = np.full(size, -1, dtype=np.int64)
    table[sidx[1:]] = 1
    table[0] = 0
    _char_tables[key] = table
    return table


def _all_monic(q: int, d: int) -> np.ndarray:
    # rows = coefficient vectors (ascending), lex order over low coeffs
    cached = _monic_cache.get((q, d))
    if cached is not None:
        return cached
    count = q**d
    mat = np.ones((count, d + 1), dtype=np.int64)
    idx = np.arange(count)
    for k in range(d):
        mat[:, k] = (idx // q**k) % q
    _monic_cache[(q, d)] = mat
    return mat


def _mod_batch(q: int, rows: np.ndarray, p: Poly) -> np.ndarray:
    # rows all share one degree, so long division is uniform per column.
    dp = len(p) - 1
    r = rows.copy()
    if r.shape[1] < dp:
        pad = np.zeros((r.shape[0], dp - r.shape[1]), dtype=np.int64)
        r = np.concatenate([r, pad], axis=1)
    pv = np.asarray(p, dtype=np.int64)
    for i in range(r.shape[1] - 1, dp - 1, -1):
        c = r[:, i].copy()
        r[:, i - dp : i + 1] = (r[:, i - dp : i + 1] - c[:, None] * pv[None, :]) % q
    return r[:, :dp]


def _symbols(fq: Fq, g: Poly, d: int) -> np.ndarray:
    if g == (1,):
        return np.ones(fq.q**d, dtype=np.int64)
    rows = _all_monic(fq.q, d)
    vals = np.ones(rows.shape[0], dtype=np.int64)
    fac, _ = fq.factor(g)
    for p, e in fac:
        res = _mod_batch(fq.q, rows, p)
        dp = degree(p)
        idx = np.zeros(rows.shape[0], dtype=np.int64)
        for k in range(dp):
            idx += res[:, k] * fq.q**k
        chi = _char_table(fq, p)[idx]
        if e % 2:
            vals *= chi
        else:
            vals *= (chi != 0).astype(np.int64)  # even mult only kills gcd > 1
    return vals


def symbols_of_degree(fq: Fq, g: Poly, d: int) -> np.ndarray:
    """All (f/g) for monic f of degree d, in lexicographic f order."""
    return _symbols(fq, g, d)


def symbol_sums_by_degree(fq: Fq, g: Poly, dmax: int) -> np.ndarray:
    """sums[d] = sum over monic f, deg f = d, of (f/g), for d = 0..dmax."""
    # the private name: perfbench/spans.py times each public call, so one
    # sweep stays one span
    return np.array(
        [int(_symbols(fq, g, d).sum()) for d in range(dmax + 1)], dtype=np.int64
    )


def backend_name() -> str:
    """Name of the symbol-sweep implementation; there is only one."""
    return "numpy"
