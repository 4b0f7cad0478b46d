"""Quadratic residue symbols (f/g) over every monic f up to a degree.

The L-function and moment suites sum (f/g) while f runs over all monic
polynomials of one degree. This module answers those sweeps from per-prime
character rows; the tests check it against the Euclidean-reciprocity route
``Fq.residue_symbol``.

Layout. The monic f of degree d with coefficients (a_0, ..., a_{d-1}, 1)
has index q^d + sum a_k q^k, so the degree-d block of a row is the slice
[q^d, 2q^d), constant coefficient fastest, and f = c + t*h has index
q * index(h) + c.

Prime rows. The residues mod a monic prime p of degree dp are indexed base
q by their dp coefficients. One table T, with T[r] the index of t*r mod p,
is the only reduction modulo p. The residue of f = c + t*h is T[ridx(h)]
with c added to its constant digit mod q, so each degree block of residue
indices is a gather from the block before it, and p's row is chi_p of
those indices, one int8 per f. The character table chi_p comes from the
same recurrence: with r = c + t*h, r^2 = c^2 + 2c*(t*h) + t^2*h^2, so the
squares of the residues with k + 1 coefficients follow digit by digit from
those with k.

Composite g. g is factored once per call; its row is the product of the
rows of its primes, an even exponent contributing only the mask row != 0,
and the sums by degree are slice sums. The rows, tables and chi tables are
cached on the ``Fq`` context, one entry per prime, each row grown to the
largest degree asked of it; past MAX_CACHE_BYTES the oldest entries go.
"""

from __future__ import annotations

import numpy as np

from .fqpoly import Fq, Poly, degree

# Largest estimated allocation of one sweep, in bytes: the tables and rows
# of g's primes, g's own row and the temporaries of the last degree block.
MAX_SWEEP_BYTES = 2**30
# Most bytes of tables and rows one Fq context keeps; the oldest primes'
# entries are dropped first (they are rebuilt if asked for again).
MAX_CACHE_BYTES = 2**28


def _digits(q: int, n: int, idx: np.ndarray) -> np.ndarray:
    """Base-q digits of idx, shape (n, len(idx)), least significant first."""
    return np.stack([(idx // q**k) % q for k in range(n)])


def _index(q: int, digits: np.ndarray) -> np.ndarray:
    """Inverse of _digits over the first axis, reducing every digit mod q."""
    powers = q ** np.arange(len(digits), dtype=digits.dtype)
    return np.tensordot(powers, digits % q, axes=1)


def _passes(q: int, n: int) -> list[np.ndarray]:
    # the values 0..q-1 of one digit, split so that one pass over them and n
    # other entries holds at most 2^20 digit vectors
    step = max(1, 2**20 // n)
    return [np.arange(c, min(q, c + step), dtype=np.int32) for c in range(0, q, step)]


def _tables(q: int, p: Poly) -> tuple[np.ndarray, np.ndarray]:
    """(T, chi) over the residues mod p: T[r] = index of t*r mod p, chi_p."""
    dp = degree(p)
    # residue indices, and the digit sum c + (constant digit) of _prime_row,
    # stay below q^dp + q
    dt = np.min_scalar_type(q**dp + q)
    # int32 digit arithmetic: every index and digit sum stays below
    # q^dp + 3q^2, far below 2^31 for any sweep _check_cost admits.
    # A residue r = low + top*t^(dp-1) has t*r = t*low - top*(p - t^dp);
    # t*low has index q*low and needs no reduction.
    n = q ** (dp - 1)
    t_low = _digits(q, dp, np.arange(n, dtype=np.int32) * q)[:, None, :]
    p_low = np.array(p[:dp], dtype=np.int32)[:, None, None]
    T = np.empty((q, n), dtype=dt)  # T[top, low]
    for tops in _passes(q, n):
        T[tops] = _index(q, t_low - tops[:, None] * p_low)
    T = T.ravel()
    # sq[h, c] = index of r^2 mod p for r = c + t*h, over the h with k
    # coefficients: r^2 = c^2 + 2c*(t*h) + t*(t*h^2), and r has index c + q*h.
    # The last level only marks the squares in chi.
    chi = np.full(q**dp, -1, dtype=np.int8)
    unit = np.zeros((dp, 1, 1), dtype=np.int32)
    unit[0] = 1
    sq = np.zeros(1, dtype=dt)
    for k in range(dp):
        m = q**k
        tt_sq = _digits(q, dp, T[T[sq]].astype(np.int32))[:, :, None]
        t_h = _digits(q, dp, np.arange(m, dtype=np.int32) * q)[:, :, None]
        last = k == dp - 1
        sq = np.empty((0, 0) if last else (m, q), dtype=dt)
        for cs in _passes(q, m):
            r_sq = _index(q, tt_sq + 2 * cs * t_h + cs * cs * unit)
            if last:
                chi[r_sq] = 1
            else:
                sq[:, cs] = r_sq
        sq = sq.ravel()
    chi[0] = 0
    return T, chi


def _prime_row(fq: Fq, p: Poly, dmax: int) -> np.ndarray:
    """chi_p of every monic f of degree <= dmax (at least), in row layout."""
    q = fq.q
    entry = fq._char_rows.get(p)
    if entry is None:
        T, chi = _tables(q, p)
    elif len(entry[2]) >= 2 * q**dmax:
        return entry[2]
    else:
        # a longer row is rebuilt from degree 0: the blocks below dmax are
        # at most 1/(q-1) of its work, and no residue indices are kept
        T, chi, _ = entry
    row = np.zeros(2 * q**dmax, dtype=np.int8)
    ridx = np.ones(1, dtype=T.dtype)  # f = 1 is the residue 1, index 1
    row[1] = 1
    cs = np.arange(q, dtype=T.dtype)
    for d in range(1, dmax + 1):
        u = T[ridx]
        low = u % q
        u -= low
        nxt = low[:, None] + cs
        nxt %= q
        nxt += u[:, None]
        ridx = nxt.ravel()
        row[q**d : 2 * q**d] = chi[ridx]
    _store(fq, p, (T, chi, row))
    return row


def _store(fq: Fq, p: Poly, entry: tuple) -> None:
    cache = fq._char_rows
    if p in cache:
        fq._char_bytes -= sum(a.nbytes for a in cache.pop(p))
    need = sum(a.nbytes for a in entry)
    while cache and fq._char_bytes + need > MAX_CACHE_BYTES:
        fq._char_bytes -= sum(a.nbytes for a in cache.pop(next(iter(cache))))
    cache[p] = entry
    fq._char_bytes += need


def _check_cost(fq: Fq, g: Poly, factors, dmax: int) -> None:
    n = fq.q**dmax
    estimate = 8 * n  # g's row and mask, and the last block's residue indices
    for p, _ in factors:
        # T and the squares (at most 4 bytes an index) and chi; p's row
        estimate += 9 * fq.q ** degree(p) + 2 * n
    if estimate > MAX_SWEEP_BYTES:
        raise ValueError(
            f"symbol sweep of g={list(g)} to degree {dmax} needs about "
            f"{estimate:.1e} bytes, above the limit {MAX_SWEEP_BYTES:.1e}"
        )


def _row(fq: Fq, g: Poly, dmax: int) -> np.ndarray:
    # (f/g) for every monic f of degree <= dmax, in row layout
    factors, _ = fq.factor(g)
    _check_cost(fq, g, factors, dmax)
    n = 2 * fq.q**dmax
    row = np.ones(n, dtype=np.int8)
    for p, e in factors:
        prow = _prime_row(fq, p, dmax)[:n]
        if e % 2:
            row *= prow
        else:
            row *= prow != 0  # an even power only kills gcd > 1
    return row


def symbols_of_degree(fq: Fq, g: Poly, d: int) -> np.ndarray:
    """All (f/g) for monic f of degree d, in lexicographic f order."""
    return _row(fq, g, d)[fq.q**d :]


def symbol_sums_by_degree(fq: Fq, g: Poly, dmax: int) -> np.ndarray:
    """sums[d] = sum over monic f, deg f = d, of (f/g), for d = 0..dmax."""
    # the private name: perfbench/spans.py times each public call, so one
    # sweep stays one span
    row = _row(fq, g, dmax)
    return np.array(
        [row[fq.q**d : 2 * fq.q**d].sum() for d in range(dmax + 1)], dtype=np.int64
    )


def backend_name() -> str:
    """Name of the symbol-sweep implementation; there is only one."""
    return "numpy"
