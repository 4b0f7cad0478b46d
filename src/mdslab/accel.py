"""Quadratic residue symbols (f/g) over every monic f up to a degree.

The L-function and moment suites sum (f/g) while f runs over all monic
polynomials of one degree. This module answers those sweeps from per-prime
character rows; the tests check it against the Euclidean-reciprocity route
``Fq.residue_symbol``.

Layout. The monic f of degree d with coefficients (a_0, ..., a_{d-1}, 1)
has index q^d + sum a_k q^k (the index layout of ``fqpoly``, whose prime
sieve uses it too), so the degree-d block of a row is the slice
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
those with k. The primes missing from the cache are built together, in
batches of one degree: the tables of a batch sit side by side, one per
row of a matrix, and each gather reads the flat matrix at the prime's
offset, so a batch costs about as many numpy calls as one prime. A single
prime, as a sweep of one g may ask for, is a batch of one.

Composite g. The symbol is multiplicative in the modulus, so g's row is
the product of the rows of its primes, an even exponent contributing only
the mask row != 0, and the sums by degree are slice sums, kept per g as
far as they were swept. A sweep takes g as its factorisation, which every
caller already holds, so g is neither multiplied out nor factored here.
``symbol_rows`` returns the rows of every monic g of one degree, building
the missing primes of each degree up to it first.

Cache. Each Fq context holds one byte-bounded ``_Cache``: the row of each
prime, and the sums of each g as far as they were swept, keyed by g's
primes and the parity of each exponent (which is all (f/g) depends on), so
one modulus has one entry whichever route asks for it. T and chi are
dropped once a batch's rows are built, since a row read to degree d costs
2q^d bytes where p's tables cost about 3q^(deg p); a row asked to a larger
degree is rebuilt, tables and all, like a missing one. Past
MAX_CACHE_BYTES the oldest entries of either kind go.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fqpoly import Fq, Poly, _digits, _index, degree

# Largest estimated allocation of one sweep, in bytes: the tables and rows
# of the primes involved, the rows asked for and the temporaries of the
# last degree block.
MAX_SWEEP_BYTES = 2**30
# Most bytes of rows and swept sums one Fq context keeps; the oldest
# entries are dropped first (they are rebuilt if asked for again).
MAX_CACHE_BYTES = 2**28
# Most digit vectors one pass of _tables holds (about 12 bytes of
# temporaries a digit), and most row entries one batch of _grow builds
# (about 16 bytes each), unless one prime alone needs more: a batch of
# primes costs a few numpy calls a pass, and its temporaries stay near a
# megabyte.
TABLE_PASS = 2**14
ROW_BATCH = 2**16


def _passes(q: int, count: int, n: int) -> list:
    # [(range of primes, [ranges of the values 0..q-1 of one digit])], split
    # so that one pass over some primes, some values and n other entries
    # holds at most TABLE_PASS digit vectors
    kstep = max(1, TABLE_PASS // (q * n))
    cstep = max(1, TABLE_PASS // n)
    values = [np.arange(c, min(q, c + cstep), dtype=np.int32) for c in range(0, q, cstep)]
    return [(slice(k, min(count, k + kstep)), values) for k in range(0, count, kstep)]


def _tables(q: int, primes: list[Poly]) -> tuple[np.ndarray, np.ndarray]:
    """(T, chi) of primes of one degree dp, one row of q^dp residues each:
    T[k, r] = index of t*r mod primes[k], and chi[k] = chi_{primes[k]}."""
    dp, count = degree(primes[0]), len(primes)
    size = q**dp
    # residue indices, and the digit sum c + (constant digit) of _grow,
    # stay below q^dp + q
    dt = np.min_scalar_type(size + q)
    # int32 digit arithmetic: every index and digit sum stays below
    # q^dp + 3q^2, far below 2^31 for any sweep _check_cost admits.
    # A residue r = low + top*t^(dp-1) has t*r = t*low - top*(p - t^dp);
    # t*low has index q*low and needs no reduction.
    n = q ** (dp - 1)
    t_low = _digits(q, dp, np.arange(n, dtype=np.int32) * q)[:, None, None, :]
    p_low = np.array([p[:dp] for p in primes], dtype=np.int32).T[:, :, None, None]
    T = np.empty((count, q, n), dtype=dt)  # T[k, top, low]
    for ks, value_ranges in _passes(q, count, n):
        for tops in value_ranges:
            T[ks, tops] = _index(q, t_low - tops[:, None] * p_low[:, ks])
    T = T.reshape(count, size)
    # the tables side by side: prime k's entry r is flat[offset[k] + r]
    flat = T.ravel()
    offset = np.arange(count, dtype=np.intp)[:, None] * size
    # sq[k, h, c] = index of r^2 mod p_k for r = c + t*h, over the h with j
    # coefficients: r^2 = c^2 + 2c*(t*h) + t*(t*h^2), and r has index
    # c + q*h. The last level only marks the squares in chi.
    chi = np.full((count, size), -1, dtype=np.int8)
    unit = np.zeros((dp, 1, 1, 1), dtype=np.int32)
    unit[0] = 1
    sq = np.zeros((count, 1), dtype=dt)
    for j in range(dp):
        m = q**j
        t_h = _digits(q, dp, np.arange(m, dtype=np.int32) * q)[:, None, :, None]
        last = j == dp - 1
        nxt = None if last else np.empty((count, m, q), dtype=dt)
        for ks, value_ranges in _passes(q, count, m):
            tt = flat[offset[ks] + flat[offset[ks] + sq[ks]]]
            tt_sq = _digits(q, dp, tt.astype(np.int32))[..., None]
            for cs in value_ranges:
                r_sq = _index(q, tt_sq + 2 * cs * t_h + cs * cs * unit)
                if last:
                    chi.ravel()[offset[ks, :, None] + r_sq] = 1
                else:
                    nxt[ks, :, cs] = r_sq
        if not last:
            sq = nxt.reshape(count, m * q)
    chi[:, 0] = 0
    return T, chi


def _grow(q: int, T: np.ndarray, chi: np.ndarray, dmax: int) -> np.ndarray:
    """Rows to degree dmax of the primes whose (T, chi) are the rows of the
    given matrices: chi_p of every monic f of degree <= dmax."""
    count, size = T.shape
    T, chi = T.ravel(), chi.ravel()
    # ridx holds flat indices, prime k's residues at k*size + r; the offset
    # is a multiple of q, so the low digit of an index is that of r
    offset = np.arange(0, count * size, size, dtype=np.min_scalar_type(count * size + q))
    rows = np.zeros((count, 2 * q**dmax), dtype=np.int8)
    rows[:, 1] = 1
    ridx = offset[:, None] + 1  # f = 1 is the residue 1, index 1
    cs = np.arange(q, dtype=ridx.dtype)
    for d in range(1, dmax + 1):
        u = T[ridx]
        low = u % q
        u -= low
        nxt = low[:, :, None] + cs
        nxt %= q
        nxt += (u + offset[:, None])[:, :, None]
        ridx = nxt.reshape(count, q**d)
        rows[:, q**d : 2 * q**d] = chi[ridx]
    return rows


class _Cache:
    """accel's entries on one Fq context, one array each: ("row", p) the
    row of a prime p, ("sums", factors) the swept sums of the modulus with
    those ((prime, 1 or 2), ...), exponents reduced by parity. nbytes is
    the bytes they hold; past MAX_CACHE_BYTES the entries stored longest
    ago go first, whichever kind they are."""

    def __init__(self):
        self.entries: dict[tuple[str, tuple], np.ndarray] = {}  # oldest first
        self.nbytes = 0

    def put(self, key: tuple[str, tuple], array: np.ndarray) -> None:
        self._drop(key)
        while self.entries and self.nbytes + array.nbytes > MAX_CACHE_BYTES:
            self._drop(next(iter(self.entries)))
        self.entries[key] = array
        self.nbytes += array.nbytes

    def _drop(self, key: tuple[str, tuple]) -> None:
        array = self.entries.pop(key, None)
        if array is not None:
            self.nbytes -= array.nbytes


def _cache(fq: Fq) -> _Cache:
    # the cache fq holds for this module, made on first use
    fq._accel_cache = fq._accel_cache or _Cache()
    return fq._accel_cache


def _prime_rows(fq: Fq, primes, dmax: int) -> dict:
    """{p: chi_p of every monic f of degree <= dmax (at least), row layout}.

    The primes without a cached row that long, missing or shorter, are
    built in batches of one degree, topped up with the other such primes of
    that degree when they are few and small enough to cost about one prime.
    A row is always built from degree 0 by ``_tables`` and ``_grow``: the
    blocks below dmax are at most 1/(q-1) of its work, and no tables or
    residue indices are kept.
    """
    q, n = fq.q, 2 * fq.q**dmax
    cache = _cache(fq)
    rows: dict = {}
    todo: dict[int, list] = {}  # {degree: [primes whose row is missing or shorter]}
    for p in primes:
        row = cache.entries.get(("row", p), ())
        if len(row) < n:
            todo.setdefault(degree(p), []).append(p)
        else:
            rows[p] = row
    for e, group in todo.items():
        # when all primes of degree e (at most q^e / e) fit one pass of
        # _tables and one batch of _grow, they cost about as many numpy calls
        # as one: the others without a row that long are built too, if the
        # cache has room for their rows
        if q**e * q**e > e * TABLE_PASS or q**e * n > e * ROW_BATCH:
            continue
        short = [p for p in fq._primes_of_degree(e) if len(cache.entries.get(("row", p), ())) < n]
        if cache.nbytes + (len(short) - len(group)) * n <= MAX_CACHE_BYTES:
            todo[e] = short
    # batches of at most ROW_BATCH row entries bound the temporaries of _grow
    step = max(1, ROW_BATCH // n)
    for group in todo.values():
        for start in range(0, len(group), step):
            batch = group[start : start + step]
            for p, row in zip(batch, _grow(q, *_tables(q, batch), dmax)):
                # each entry owns its array, so dropping one frees its memory;
                # a batch of one is its own row
                rows[p] = row if len(batch) == 1 else row.copy()
                cache.put(("row", p), rows[p])
    return rows


def _check_cost(q: int, prime_degrees, dmax: int, rows: int, what) -> None:
    # prime_degrees: (degree, number of primes) pairs; what() names the sweep
    n = q**dmax
    # the rows asked for, a mask and the last block's residue indices
    estimate = 2 * n * rows + 6 * n
    for dp, count in prime_degrees:
        # T and the squares (at most 4 bytes an index) and chi; p's row
        estimate += count * (9 * q**dp + 2 * n)
    if estimate > MAX_SWEEP_BYTES:
        raise ValueError(
            f"{what()} to degree {dmax} needs about {estimate:.1e} bytes, "
            f"above the limit {MAX_SWEEP_BYTES:.1e}"
        )


def _multiply(out: np.ndarray, factors, prime_rows: dict) -> None:
    # out *= the rows of g = prod p^e, which makes a row of ones g's row
    for p, e in factors:
        prow = prime_rows[p][: len(out)]
        if e % 2:
            out *= prow
        else:
            out *= prow != 0  # an even power only kills gcd > 1


def _row(fq: Fq, factors, dmax: int) -> np.ndarray:
    # (f/g) for every monic f of degree <= dmax, in row layout, with g the
    # product of the p^e of factors
    degrees = [(degree(p), 1) for p, _ in factors]
    _check_cost(fq.q, degrees, dmax, 1, lambda: f"symbol sweep of g with factors {factors}")
    row = np.ones(2 * fq.q**dmax, dtype=np.int8)
    _multiply(row, factors, _prime_rows(fq, [p for p, _ in factors], dmax))
    return row


def symbol_rows(fq: Fq, d: int, dmax: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """(f/g) for the monic g of degree d at positions [start, stop) of
    ``monic_enum`` order (every such g by default), one int8 row each, over
    every monic f of degree <= dmax.

    Row k holds (f/g) for the g at position start + k and the f of degree
    b at [q^b, 2q^b), constant coefficient fastest (the layout above);
    entry 0 is no f.
    """
    q = fq.q
    stop = q**d if stop is None else min(stop, q**d)
    # at most q^e / e primes have degree e
    degrees = [(e, q**e // e) for e in range(1, d + 1)]
    _check_cost(
        q, degrees, dmax, stop - start, lambda: f"symbol rows of the monic g of degree {d}"
    )
    primes = [p for e in range(1, d + 1) for p in fq._primes_of_degree(e)]
    prime_rows = _prime_rows(fq, primes, dmax)
    rows = np.ones((stop - start, 2 * q**dmax), dtype=np.int8)
    for row, g in zip(rows, itertools.islice(fq.monic_enum(d), start, stop)):
        _multiply(row, fq.factor(g)[0], prime_rows)
    return rows


def symbol_sums_by_degree(fq: Fq, factors, dmax: int) -> np.ndarray:
    """sums[d] = sum over monic f, deg f = d, of (f/g), for d = 0..dmax.

    g is given by its factorisation ((p, e), ...) into monic primes, as
    ``fq.factor(g)[0]`` lists it. The sums of each g are kept on fq, as far
    as they were swept, so a g asked for again to no higher degree is
    answered without a sweep. (f/g) depends on each e only through its
    parity, so the entry's key holds e reduced to 1 (odd) or 2 (even).
    """
    factors = tuple(sorted((p, 2 - e % 2) for p, e in factors))
    cache = _cache(fq)
    held = cache.entries.get(("sums", factors))
    if held is None or len(held) <= dmax:
        # the private name: perfbench/spans.py times each public call, so
        # one sweep stays one span
        row = _row(fq, factors, dmax)
        # one reduction over the edges q^0, 2q^0, q, 2q, ..., q^dmax: every
        # other segment is a degree block, the ones between hold no f.
        # int32 cannot overflow: _check_cost keeps the row below 2^30 entries.
        edges = [k * fq.q**d for d in range(dmax + 1) for k in (1, 2)]
        held = np.add.reduceat(row, edges[:-1], dtype=np.int32)[::2].astype(np.int64)
        cache.put(("sums", factors), held)
    return held[: dmax + 1].copy()


def backend_name() -> str:
    """Name of the symbol-sweep implementation; there is only one."""
    return "numpy"
