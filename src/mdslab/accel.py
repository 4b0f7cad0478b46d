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

Prime rows. Every supported q is 1 mod 4, so (f/p) = (p/f) for monic f
and p: below the degree e of a monic prime p, p's row (one int8 per f) is
the completely multiplicative function of f whose value at a prime r is
(p/r). Each degree block takes (p/r) at its primes r by Euclid and
reciprocity, vectorised over the pairs (p, r), and fills every other f
from the prime sieve of ``fqpoly``: row[f] = row[cof f] * row[spf f].
From e on, f is reduced mod p. The residues mod p are indexed base q by
their e coefficients, and a residue s = u*m, u its lead and m monic, has
chi_p(s) = legendre(u)^e row[m], so p's residue characters are read off
its row below e. A monic f of degree e has f mod p = f - p, so that block
is a gather from them. Only the blocks above e reduce through a table T,
with T[r] the index of t*r mod p: the residue of f = c + t*h is T[ridx(h)]
with c added to its constant digit mod q, so each block of residue indices
is a gather from the block before it. The primes missing from the cache
are built together, in batches of one degree: the rows and tables of a
batch sit side by side, one per row of a matrix, and each gather reads the
flat matrix at the prime's offset, so a batch costs about as many numpy
calls as one prime. A single prime, as a sweep of one g may ask for, is a
batch of one.

Composite g. The symbol is multiplicative in the modulus, so g's row is
the product of the rows of its primes, an even exponent contributing only
the mask row != 0. Both public routes price their work first and then read
one private path, which builds the missing rows of the primes dividing
some g, and no other prime, and multiplies them into one row per g.
``symbol_rows`` takes a list of monic g, squares included, and factors
them. A sweep sums (f/g) by degree for a squarefree g, a primitive
character, given by its primes, which every caller already holds, so g is
neither multiplied out nor factored; the principal character (no prime)
has the sums q^d and needs no row.

Cache. Each Fq context holds one byte-bounded ``_Cache``: the row of each
prime, and the sums of each squarefree g as far as they were swept, keyed
by g's sorted primes, so one modulus has one entry whichever route asks
for it. The residue characters and T are dropped once a batch's rows are
built, since a row read to degree d costs 2q^d bytes where they cost about
5q^(deg p); a row asked to a larger degree is rebuilt like a missing one,
and a row read below deg p needs neither. No row is built from another
prime's cached row, so an entry may go whenever the bound needs room.
Past MAX_CACHE_BYTES the oldest entries of either kind go.
"""

from __future__ import annotations

import numpy as np

from . import fqpoly
from .fqpoly import Fq, Poly, _digits, _index, _sieve, _sieve_bytes, degree

# Largest estimated allocation of one sweep, in bytes: the tables and rows
# of the primes involved, the rows asked for, the temporaries of the last
# degree block, and a prime sieve of its own when fqpoly's may not grow.
MAX_SWEEP_BYTES = 2**30
# Most bytes of rows and swept sums one Fq context keeps; the oldest
# entries are dropped first (they are rebuilt if asked for again).
MAX_CACHE_BYTES = 2**28
# Most digit vectors one pass holds, pairs (p, r) of _jacobi or residues
# of _shifts (about 12 bytes of temporaries a digit), and most row entries
# one batch builds (about 16 bytes each), unless one prime alone needs
# more: a batch of primes costs a few numpy calls a pass, and its
# temporaries stay near a megabyte.
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


def _shifts(q: int, primes: list[Poly]) -> np.ndarray:
    """T of primes of one degree dp, one row of q^dp residues each:
    T[k, r] = index of t*r mod primes[k]."""
    dp, count = degree(primes[0]), len(primes)
    # residue indices, and the digit sum c + (constant digit) of _grow,
    # stay below q^dp + q
    dt = np.min_scalar_type(q**dp + q)
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
    return T.reshape(count, q**dp)


def _mod(q: int, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # digits of num mod den, den monic of degree k >= 1, over lanes: the
    # digit arrays have shape (digits, lanes), lowest first; num has more
    # than k digits. int32: a partial remainder stays below (deg num) q^2.
    k = len(den) - 1
    rem = num.astype(np.int32)
    for i in range(len(rem) - 1, k - 1, -1):
        rem[i - k : i] -= rem[i] % q * den[:k]
    return rem[:k] % q


def _jacobi(q: int, twist: np.ndarray, inverse: np.ndarray, pairs) -> np.ndarray:
    """(num/den) over the lanes of each (num, den) of pairs, one after the
    other, den monic of one degree k >= 1 in each (digit arrays as in
    _mod), by Euclid and reciprocity: with num mod den = u*m, u its lead
    and m monic, (num/den) = legendre(u)^k (den mod m / m), which is
    twist[k % 2, u] (den mod m / m). The pairs share each step of the
    descent in k."""
    todo: dict[int, list] = {}  # {degree of den: [(num mod den, den, sign, lanes)]}

    def push(num, den, sign, lanes):
        todo.setdefault(len(den) - 1, []).append((_mod(q, num, den), den, sign, lanes))

    n = 0
    for num, den in pairs:
        push(num, den, np.ones(num.shape[1], dtype=np.int8), np.arange(n, n + num.shape[1]))
        n += num.shape[1]
    out = np.zeros(n, dtype=np.int8)
    for k in range(max(todo), 0, -1):
        if k not in todo:
            continue
        rem, den, sign, lanes = (np.concatenate(a, axis=-1) for a in zip(*todo.pop(k)))
        # the degree j of each remainder and its lead u (both 0 when it is 0)
        j = ((rem != 0) * np.arange(k)[:, None]).max(axis=0)
        u = rem[j, np.arange(len(j))]
        sign *= twist[k % 2, u]
        done = j == 0
        out[lanes[done]] = sign[done]
        monic = rem * inverse[u] % q
        for jj in range(1, k):
            on = j == jj
            if on.any():
                push(den[:, on], monic[: jj + 1, on], sign[on], lanes[on])
    return out


def _sieve_to(fq: Fq, d: int) -> tuple[np.ndarray, np.ndarray]:
    # (spf, cof) to degree d at least: fq's sieve, grown to d when its bound
    # allows, else one of this sweep's own (_check_cost prices it)
    return (fq._spf, fq._cof) if fq._sieve_reaches(d) else _sieve(fq.q, d)


def _residue_chars(q: int, twist: np.ndarray, rows: np.ndarray, e: int) -> np.ndarray:
    """chi[k, s] = chi_p(s) for the residues s mod the primes p of degree e
    whose rows to degree e - 1 (at least) are rows[k], s indexed base q by
    its e coefficients: s = u*m, u its lead and m monic, has chi_p(s) =
    legendre(u)^e row_p[m] = twist[e % 2, u] row_p[m]."""
    count = len(rows)
    chi = np.zeros((count, q**e), dtype=np.int8)
    step = max(1, ROW_BATCH // (count * q ** (e - 1)))
    for u0 in range(1, q, step):
        us = np.arange(u0, min(q, u0 + step))
        lead = twist[e % 2, us, None]
        digit = us[:, None] * np.arange(q) % q  # u*c mod q
        # mul[u, x] = index of u*x, coefficient by coefficient, for x < q^k
        mul = np.zeros((len(us), 1), dtype=np.int64)
        for k in range(e):
            if k:
                mul = (digit[:, :, None] * q ** (k - 1) + mul[:, None, :]).reshape(len(us), -1)
            # the residues of degree k and lead u are u*(t^k + x)
            chi[:, us[:, None] * q**k + mul] = lead * rows[:, None, q**k : 2 * q**k]
    return chi


def _grow(q: int, rows: np.ndarray, chi: np.ndarray, primes, dmax: int) -> None:
    """Fill the blocks e..dmax of rows, e the degree of the primes whose
    residue characters are the rows of chi: the f of degree e have
    f mod p = f - p, and the blocks above reduce through T."""
    count, size = chi.shape
    e = degree(primes[0])
    # ridx holds flat indices, prime k's residues at k*size + r; the offset
    # is a multiple of q, so the low digit of an index is that of r
    dt = np.min_scalar_type(count * size + q)
    offset = np.arange(0, count * size, size, dtype=dt)
    ridx = offset[:, None]
    cs = np.arange(q)
    for j, p_j in enumerate(np.array([p[:e] for p in primes]).T):
        # the index of f - p, coefficient j of f running fastest so far
        digit = ((cs - p_j[:, None]) % q * q**j).astype(dt)
        ridx = (digit[:, :, None] + ridx[:, None, :]).reshape(count, -1)
    chi = chi.ravel()
    rows[:, q**e : 2 * q**e] = chi[ridx]
    if dmax == e:
        return
    T = _shifts(q, primes).ravel()
    cs = cs.astype(ridx.dtype)
    for d in range(e + 1, dmax + 1):
        # f = c + t*h is reduced as T[h mod p] with c added to its constant digit
        u = T[ridx]
        low = u % q
        u -= low
        nxt = low[:, :, None] + cs
        nxt %= q
        nxt += (u + offset[:, None])[:, :, None]
        ridx = nxt.reshape(count, q**d)
        rows[:, q**d : 2 * q**d] = chi[ridx]


def _batch_rows(fq: Fq, primes: list[Poly], dmax: int) -> np.ndarray:
    """Rows to degree dmax of primes of one degree e: chi_p of every monic
    f of degree <= dmax, one row of the matrix per prime.

    Below e, (f/p) = (p/f) is completely multiplicative in f: each degree
    block takes (p/r) at its primes r by ``_jacobi`` and fills the other f
    from the sieve, row[f] = row[cof f] * row[spf f]. From e on the rows
    read p's residue characters (``_residue_chars``), through ``_grow``.
    """
    q, e, count = fq.q, degree(primes[0]), len(primes)
    legendre = np.array(fq.legendre, dtype=np.int8)
    twist = np.stack([legendre * legendre, legendre])  # legendre(u)^k by k % 2
    rows = np.zeros((count, 2 * q**dmax), dtype=np.int8)
    rows[:, 1] = 1
    low = min(dmax, e - 1)
    if low:
        spf, cof = _sieve_to(fq, low)
        inverse = np.array([0] + [pow(c, q - 2, q) for c in range(1, q)], dtype=np.int32)
        num = np.array(primes, dtype=np.int32).T
        # the primes r of degree 1..low, in passes of at most TABLE_PASS
        # lanes, one lane per pair (r, p), p fastest
        blocks = [spf[q**d : 2 * q**d] for d in range(1, low + 1)]
        rs = np.concatenate([np.flatnonzero(b == 0) + q**d for d, b in enumerate(blocks, 1)])
        step = max(1, TABLE_PASS // count)
        for start in range(0, len(rs), step):
            r = rs[start : start + step]
            # r of degree d lies in [q^d, 2q^d)
            cuts = np.searchsorted(r, [q**d for d in range(2, low + 1)])
            pairs = [
                (np.tile(num, len(rd)), np.repeat(_digits(q, d + 1, rd), count, axis=1))
                for d, rd in enumerate(np.split(r.astype(np.int32), cuts), 1)
                if len(rd)
            ]
            rows[:, r] = _jacobi(q, twist, inverse, pairs).reshape(len(r), count).T
        for d, b in enumerate(blocks, 1):
            f = np.flatnonzero(b) + q**d
            rows[:, f] = rows[:, cof[f]] * rows[:, spf[f]]
    if dmax >= e:
        _grow(q, rows, _residue_chars(q, twist, rows, e), primes, dmax)
    return rows


class _Cache:
    """accel's entries on one Fq context, one array each: ("row", p) the
    row of a prime p, ("sums", primes) the swept sums of the product of
    those sorted primes. nbytes is the bytes they hold; past
    MAX_CACHE_BYTES the entries stored longest ago go first, whichever kind
    they are."""

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
    built in batches of one degree by ``_batch_rows``, topped up with the
    other such primes of that degree when they are few and small enough to
    cost about one prime. A row is always built from degree 0: the blocks
    below dmax are at most 1/(q-1) of its work, and no residue characters,
    tables or residue indices are kept. A prime of degree e read below e
    needs only its pairs (p, r) with the primes r of degree <= dmax and the
    sieve to dmax; from e on, also its q^e residues.
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
        # a prime's pass holds its pairs (p, r) with the primes r of degree
        # <= min(dmax, e - 1), at most q^dmax, or from e on its q^e residues.
        # When all primes of degree e (at most q^e / e) fit one such pass and
        # one batch of rows, they cost about as many numpy calls as one: the
        # others without a row that long are built too, if the cache has
        # room for their rows
        if q**e * q ** min(e, dmax) > e * TABLE_PASS or q**e * n > e * ROW_BATCH:
            continue
        short = [p for p in fq._primes_of_degree(e) if len(cache.entries.get(("row", p), ())) < n]
        if cache.nbytes + (len(short) - len(group)) * n <= MAX_CACHE_BYTES:
            todo[e] = short
    # batches of at most ROW_BATCH row entries bound their temporaries
    step = max(1, ROW_BATCH // n)
    for group in todo.values():
        for start in range(0, len(group), step):
            batch = group[start : start + step]
            for p, row in zip(batch, _batch_rows(fq, batch, dmax)):
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
        # p's row, and read to dp or beyond, its residue characters, T and
        # the residue indices of block dp (at most 4 bytes an index)
        estimate += count * (2 * n + (9 * q**dp if dp <= dmax else 0))
    # the rows below the largest dp are filled from a sieve to this degree
    low = min(dmax, max((dp for dp, _ in prime_degrees), default=1) - 1)
    if low > 0 and _sieve_bytes(q, low) > fqpoly.MAX_SIEVE_BYTES:
        estimate += _sieve_bytes(q, low)
    if estimate > MAX_SWEEP_BYTES:
        raise ValueError(
            f"{what()} to degree {dmax} needs about {estimate:.1e} bytes, "
            f"above the limit {MAX_SWEEP_BYTES:.1e}"
        )


def _modulus_rows(fq: Fq, factorisations, dmax: int) -> np.ndarray:
    # (f/g) for every monic f of degree <= dmax, in row layout, one row per
    # monic g given by its factorisation ((p, e), ...): the product of its
    # primes' rows, an even power contributing only the mask row != 0, as it
    # only kills the f with gcd(f, p) > 1
    primes = dict.fromkeys(p for fac in factorisations for p, _ in fac)
    prime_rows = _prime_rows(fq, primes, dmax)
    rows = np.ones((len(factorisations), 2 * fq.q**dmax), dtype=np.int8)
    for row, fac in zip(rows, factorisations):
        for p, e in fac:
            prow = prime_rows[p][: len(row)]
            row *= prow if e % 2 else prow != 0
    return rows


def symbol_rows(fq: Fq, gs, dmax: int) -> np.ndarray:
    """(f/g) for each monic g of the list gs, one int8 row each, over every
    monic f of degree <= dmax.

    Row k holds (f/g) for gs[k] and the f of degree b at [q^b, 2q^b),
    constant coefficient fastest (the layout above); entry 0 is no f. The
    cost is priced before any g is factored; then the rows of the primes
    dividing some g, and of no other prime, are built and multiplied into
    one row per g.
    """
    q, top = fq.q, max((degree(g) for g in gs), default=0)
    # at most q^e / e primes have degree e, and a g of degree <= top has at
    # most top // e of them
    degrees = [(e, min(q**e // e, len(gs) * (top // e))) for e in range(1, top + 1)]
    _check_cost(
        q, degrees, dmax, len(gs), lambda: f"symbol rows of {len(gs)} monic g of degree <= {top}"
    )
    return _modulus_rows(fq, [fq.factor(g)[0] for g in gs], dmax)


def symbol_sums_by_degree(fq: Fq, primes, dmax: int) -> np.ndarray:
    """sums[d] = sum over monic f, deg f = d, of (f/g), for d = 0..dmax.

    g is the squarefree product of the distinct monic primes given, so
    (. / g) is a primitive character; with no prime it is the principal
    character, whose sums q^d need no row. The sums of each g are kept on
    fq, keyed by its sorted primes, as far as they were swept, so a g
    asked for again to no higher degree is answered without a sweep.
    """
    primes = tuple(sorted(primes))
    if not primes:
        return np.array([fq.q**d for d in range(dmax + 1)], dtype=np.int64)
    cache = _cache(fq)
    held = cache.entries.get(("sums", primes))
    if held is None or len(held) <= dmax:
        degrees = [(degree(p), 1) for p in primes]
        _check_cost(fq.q, degrees, dmax, 1, lambda: f"symbol sweep of the primes {primes}")
        # the private name: perfbench/spans.py times each public call, so
        # one sweep stays one span
        row = _modulus_rows(fq, [[(p, 1) for p in primes]], dmax)[0]
        # one reduction over the edges q^0, 2q^0, q, 2q, ..., q^dmax: every
        # other segment is a degree block, the ones between hold no f.
        # int32 cannot overflow: _check_cost keeps the row below 2^30 entries.
        edges = [k * fq.q**d for d in range(dmax + 1) for k in (1, 2)]
        held = np.add.reduceat(row, edges[:-1], dtype=np.int32)[::2].astype(np.int64)
        cache.put(("sums", primes), held)
    return held[: dmax + 1].copy()


def backend_name() -> str:
    """Name of the symbol-sweep implementation; there is only one."""
    return "numpy"
