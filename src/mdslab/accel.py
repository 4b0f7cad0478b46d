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
far as they were swept.
``symbol_rows`` returns the rows of every monic g of one degree, building
the missing primes of each degree up to it first. The tables, chi
tables and rows are cached on the ``Fq`` context, one entry per prime,
each row grown to the largest degree asked of it (from the cached T and
chi), next to the swept sums; past MAX_CACHE_BYTES the oldest entries of
either kind go.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fqpoly import Fq, Poly, _digits, _index, degree

# Largest estimated allocation of one sweep, in bytes: the tables and rows
# of the primes involved, the rows asked for and the temporaries of the
# last degree block.
MAX_SWEEP_BYTES = 2**30
# Most bytes of tables, rows and swept sums one Fq context keeps; the
# oldest entries are dropped first (they are rebuilt if asked for again).
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


def _prime_rows(fq: Fq, primes, dmax: int) -> dict:
    """{p: chi_p of every monic f of degree <= dmax (at least), row layout}.

    The primes without a cached row that long are built in batches of one
    degree, topped up with the other primes of that degree when they are
    few and small enough to cost about one prime. A row that grows is
    rebuilt from degree 0 from its cached T and chi: the blocks below dmax
    are at most 1/(q-1) of its work, and no residue indices are kept.
    """
    q, n = fq.q, 2 * fq.q**dmax
    rows: dict = {}
    todo: dict[tuple, list] = {}  # {(degree, cached): [(p, cache entry)]}
    for p in primes:
        entry = fq._char_rows.get(p)
        if entry is not None and len(entry[2]) >= n:
            rows[p] = entry[2]
        else:
            todo.setdefault((degree(p), entry is not None), []).append((p, entry))
    for (e, cached), group in todo.items():
        # when all primes of degree e (at most q^e / e) fit one pass of
        # _tables and one batch of _grow, they cost about as many numpy calls
        # as one: the uncached others are built too, if the cache has room
        # (T and chi take at most 3 bytes a residue at such sizes)
        if cached or q**e * q**e > e * TABLE_PASS or q**e * n > e * ROW_BATCH:
            continue
        asked = {p for p, _ in group}
        extra = [p for p in fq._primes_of_degree(e) if p not in asked and p not in fq._char_rows]
        if fq._char_bytes + len(extra) * (3 * q**e + n) <= MAX_CACHE_BYTES:
            group += [(p, None) for p in extra]
    # batches of at most ROW_BATCH row entries bound the temporaries of _grow
    step = max(1, ROW_BATCH // n)
    for (_, cached), group in todo.items():
        for start in range(0, len(group), step):
            batch = group[start : start + step]
            # each entry owns its arrays, so dropping one frees its memory
            own = (lambda a: a) if len(batch) == 1 else np.copy
            if cached:  # stacked for the batch; one prime is read in place
                tables = [entry[:2] for _, entry in batch]
                T, chi = (np.stack(a) if len(a) > 1 else a[0][None] for a in zip(*tables))
            else:
                T, chi = _tables(q, [p for p, _ in batch])
                tables = [(own(t), own(c)) for t, c in zip(T, chi)]
            for (p, _), (t, c), row in zip(batch, tables, _grow(q, T, chi, dmax)):
                rows[p] = own(row)
                _store(fq, "_char_rows", p, (t, c, rows[p]), t.nbytes + c.nbytes + row.nbytes)
    return rows


def _store(fq: Fq, name: str, key: Poly, entry, nbytes: int) -> None:
    # keeps entry in the cache fq.<name> (_char_rows or _char_sums) and
    # charges its bytes to fq._char_bytes; past MAX_CACHE_BYTES the oldest
    # entries of either cache go first
    _drop(fq, (name, key))
    while fq._char_order and fq._char_bytes + nbytes > MAX_CACHE_BYTES:
        _drop(fq, next(iter(fq._char_order)))
    getattr(fq, name)[key] = entry
    fq._char_order[name, key] = nbytes
    fq._char_bytes += nbytes


def _drop(fq: Fq, slot: tuple) -> None:
    nbytes = fq._char_order.pop(slot, None)
    if nbytes is not None:
        name, key = slot
        del getattr(fq, name)[key]
        fq._char_bytes -= nbytes


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


def _row(fq: Fq, g: Poly, dmax: int) -> np.ndarray:
    # (f/g) for every monic f of degree <= dmax, in row layout
    factors, _ = fq.factor(g)
    degrees = [(degree(p), 1) for p, _ in factors]
    _check_cost(fq.q, degrees, dmax, 1, lambda: f"symbol sweep of g={list(g)}")
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


def symbol_sums_by_degree(fq: Fq, g: Poly, dmax: int) -> np.ndarray:
    """sums[d] = sum over monic f, deg f = d, of (f/g), for d = 0..dmax.

    The sums of each g are kept on fq, as far as they were swept, so a g
    asked for again to no higher degree is answered without a sweep.
    """
    held = fq._char_sums.get(g)
    if held is None or len(held) <= dmax:
        # the private name: perfbench/spans.py times each public call, so
        # one sweep stays one span
        row = _row(fq, g, dmax)
        # one reduction over the edges q^0, 2q^0, q, 2q, ..., q^dmax: every
        # other segment is a degree block, the ones between hold no f.
        # int32 cannot overflow: _check_cost keeps the row below 2^30 entries.
        edges = [k * fq.q**d for d in range(dmax + 1) for k in (1, 2)]
        held = np.add.reduceat(row, edges[:-1], dtype=np.int32)[::2].astype(np.int64)
        _store(fq, "_char_sums", g, held, held.nbytes)
    return held[: dmax + 1].copy()


def backend_name() -> str:
    """Name of the symbol-sweep implementation; there is only one."""
    return "numpy"
