"""Exact arithmetic in F_q[t] for prime q with q = 1 mod 4.

Polynomials are immutable coefficient tuples, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple. All operations live
on the :class:`Fq` context object, which caches the prime sieve,
factorizations and residue symbols for the small degrees this library
works at, and holds the one bounded cache of character rows and symbol
sums that ``accel`` owns.

Index layout. The monic f of degree d with coefficients (a_0, ..., a_{d-1},
1) has index q^d + sum a_k q^k, so its base-q digits are its coefficients,
the monic f of degree d fill the block [q^d, 2q^d), and f = c + t*h has
index q * index(h) + c. ``accel`` lays its symbol rows out the same way.

Sieve. Over the indices [0, 2q^D) of every monic f of degree <= D, the
context keeps two arrays: spf[f], the index of one prime factor of f (0
when f is prime), and cof[f], the index of f / spf[f]. They are marked
once per pair of degrees (e, k): the products p*h of every prime p of
degree e <= D/2 with every monic h of degree k, e <= k <= D - e, are
formed at once by digit convolution mod q and Horner's rule. The primes of
degree d are the unmarked entries of block d. The sieve is rebuilt to a
larger D on demand; its size is priced before anything is allocated, and
a sieve above MAX_SIEVE_BYTES is refused with the estimate.
``factor`` reads factorisations off spf and cof, trial-dividing only
above the sieve's degree.

The quadratic residue symbol is computed by Euclidean reduction and
quadratic reciprocity; the tests check it against Euler's criterion prime
by prime.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

import numpy as np

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)

# Largest estimated allocation of the prime sieve, in bytes: its two index
# arrays and the temporaries of one marking pass. The sieve to degree 4 at
# q=29 (1.2e7 bytes) builds in about 14 ms on a 2-vCPU host. ``factor``
# grows the sieve to deg f when this allows it.
MAX_SIEVE_BYTES = 2**24
# Most products p*h one marking pass of the sieve forms (about 4 bytes a
# digit, deg p*h + 1 digits each).
SIEVE_PASS = 2**14


def degree(f: Poly) -> int:
    """Degree of f; the zero polynomial gets the sentinel -1."""
    return len(f) - 1


def is_monic(f: Poly) -> bool:
    return bool(f) and f[-1] == 1


def _trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _digits(q: int, n: int, idx: np.ndarray) -> np.ndarray:
    """Base-q digits of idx, shape (n, *idx.shape), least significant first."""
    return np.stack([(idx // q**k) % q for k in range(n)])


def _index(q: int, digits: np.ndarray) -> np.ndarray:
    """Inverse of _digits over the first axis, reducing every digit mod q."""
    # Horner's rule: one digit-sized temporary at a time
    out = digits[-1] % q
    for digit in digits[-2::-1]:
        out *= q
        out += digit % q
    return out


def _sieve_bytes(q: int, dmax: int) -> int:
    """Estimated bytes of a sieve to degree dmax (see ``_sieve``)."""
    n = 2 * q**dmax
    # spf and cof, and one pass: the product digits, their partial products
    # and the int32 indices
    return 2 * n * np.min_scalar_type(n - 1).itemsize + 4 * (2 * dmax + 4) * SIEVE_PASS


def _sieve(q: int, dmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(spf, cof) over the indices of every monic f of degree <= dmax.

    spf[f] is the index of a prime factor of f, 0 when f is prime (or 1),
    and cof[f] the index of f / spf[f]. A composite f of degree d has a
    prime factor p of degree e <= d/2, so f = p*h with deg h >= e: the pairs
    (p, h) of degrees (e, k), e <= dmax/2 and e <= k <= dmax - e, mark
    every composite, and the primes of degree e are read from block e after
    the primes of lower degree, all of degree <= e/2, have marked it.
    """
    n = 2 * q**dmax
    dt = np.min_scalar_type(n - 1)
    spf, cof = np.zeros(n, dtype=dt), np.zeros(n, dtype=dt)
    # int32 digit arithmetic: a digit sum stays below (e + 1) q^2 and an
    # index below n, which MAX_SIEVE_BYTES keeps far below 2^31
    for e in range(1, dmax // 2 + 1):
        primes = np.flatnonzero(spf[q**e : 2 * q**e] == 0).astype(np.int32) + q**e
        p_digits = _digits(q, e + 1, primes)  # top digit 1: p is monic
        for k in range(e, dmax - e + 1):
            hs = np.arange(q**k, 2 * q**k, dtype=np.int32)
            h_digits = _digits(q, k + 1, hs)[:, None, :]
            # passes of at most SIEVE_PASS products: some primes times all
            # h, or one prime times some h
            hstep = min(len(hs), SIEVE_PASS)
            pstep = max(1, SIEVE_PASS // hstep)
            for p0 in range(0, len(primes), pstep):
                pd = p_digits[:, p0 : p0 + pstep, None]
                for h0 in range(0, len(hs), hstep):
                    hd = h_digits[..., h0 : h0 + hstep]
                    # digit j of p*h is sum_i p_i h_(j-i), reduced by _index
                    prod = np.zeros((e + k + 1, pd.shape[1], hd.shape[2]), dtype=np.int32)
                    for i in range(e + 1):
                        prod[i : i + k + 1] += pd[i] * hd
                    idx = _index(q, prod)
                    spf[idx] = primes[p0 : p0 + pstep, None]
                    cof[idx] = hs[h0 : h0 + hstep]
    return spf, cof


class Fq:
    """Arithmetic context for F_q[t], q prime and q = 1 mod 4."""

    def __init__(self, q: int):
        if q < 2 or any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
            raise ValueError(f"q={q} is not prime")
        if q % 4 != 1:
            raise ValueError(f"q={q} is not 1 mod 4")
        self.q = q
        # legendre[c] for c in F_q: 0, or +-1 by Euler's criterion.
        self.legendre = [0] + [
            1 if pow(c, (q - 1) // 2, q) == 1 else -1 for c in range(1, q)
        ]
        self._factor_cache: dict[Poly, tuple[tuple[tuple[Poly, int], ...], int]] = {}
        self._symbol_cache: dict[tuple[Poly, Poly], int] = {}
        # the sieve (see _sieve) to degree _sieve_degree, and the primes of
        # each degree read from it
        self._sieve_degree = 0
        self._spf, self._cof = _sieve(q, 0)
        self._prime_cache: dict[int, tuple[Poly, ...]] = {}
        # accel's cache of character rows and swept symbol sums, made and
        # bounded by accel on first use
        self._accel_cache = None
        # one row per nonzero square a != 1: a^(-w) at w mod q - 1, the
        # factor by which monic_orbits' scaling by a moves a coefficient of
        # weight w
        self._scalings = [
            tuple(pow(a, -w, q) for w in range(q - 1))
            for a in range(2, q)
            if self.legendre[a] == 1
        ]

    def __repr__(self) -> str:
        return f"Fq({self.q})"

    # -- ring operations ---------------------------------------------------

    def mul(self, f: Poly, g: Poly) -> Poly:
        if not f or not g:
            return ZERO
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        return _trim([c % self.q for c in out])

    def scalar_mul(self, c: int, f: Poly) -> Poly:
        c %= self.q
        return _trim([c * a % self.q for a in f])

    def divmod(self, f: Poly, g: Poly) -> tuple[Poly, Poly]:
        if not g:
            raise ZeroDivisionError("division by zero polynomial")
        q_, r = [0] * max(0, len(f) - len(g) + 1), list(f)
        inv_lead = pow(g[-1], self.q - 2, self.q)
        for i in range(len(r) - len(g), -1, -1):
            c = r[i + len(g) - 1] * inv_lead % self.q
            if c:
                q_[i] = c
                for j, b in enumerate(g):
                    r[i + j] = (r[i + j] - c * b) % self.q
        return _trim(q_), _trim(r)

    def mod(self, f: Poly, g: Poly) -> Poly:
        return self.divmod(f, g)[1]

    def to_monic(self, f: Poly) -> tuple[Poly, int]:
        """Return (monic part, leading unit) with f = unit * monic."""
        if not f:
            raise ValueError("zero polynomial")
        u = f[-1]
        if u == 1:
            return f, 1
        return self.scalar_mul(pow(u, self.q - 2, self.q), f), u

    # -- enumeration -------------------------------------------------------

    def monic_enum(self, d: int) -> Iterator[Poly]:
        """All q^d monic polynomials of degree d, lexicographic by coefficients.

        Lexicographic order is over the low-degree coefficient vector, so the
        sequence (and everything exported from it) is reproducible.
        """
        if d < 0:
            raise ValueError("negative degree")
        for low in itertools.product(range(self.q), repeat=d):
            yield low + (1,)

    def monic_orbits(self, degrees) -> Iterator[tuple[tuple[Poly, ...], int]]:
        """(representative, orbit size) over the orbits of G on the monic
        tuples of the given degrees: G = {f -> a^(-deg f) f(a t + b)}, a a
        nonzero square and b in F_q, applied to every entry at once, a group
        of order q (q - 1) / 2. Every G-invariant sum of this library (of H,
        of its one-variable slices, of the cubic-moment terms) reads it, and
        this is the one place where G and its orbits are argued.

        Invariance: t -> a t + b is a ring automorphism of F_q[t] fixing
        F_q, so each sigma(f) = a^(-deg f) f(a t + b) keeps degrees and
        factorisation shapes, and (sigma p / sigma r) = legendre(a)^(deg p
        deg r) (p/r) = (p/r), as a is a square. So sigma keeps every
        residue symbol and every weight glued from them.

        Orbits: the pivot is the first entry whose degree d is prime to q;
        f(t + b) moves its t^(d-1) coefficient by d*b, so each translation
        orbit holds q tuples, exactly one with that coefficient 0 (factor
        q). With no pivot (every degree 0 or divisible by q) the
        translations are not used (factor 1). The square scalings keep the
        pivot coefficient 0 and multiply coefficient j of an entry of degree
        d by a^(-w), w = d - j. The stabiliser of a tuple among them is the
        squares a with a^(-w) = 1 at the weight w of every nonzero
        coefficient, and the tuple's orbit size is the factor times
        (q - 1) / 2 over the order of that stabiliser.

        The walk decides the coefficients in product order (entry by entry,
        lowest first), taking only 0 at the pivot, and keeps the scalings
        a != 1 still tied with the prefix, those that fix it. A coefficient
        that a tied scaling maps lower is skipped with every completion, and
        the scalings tied at a leaf are the stabiliser's elements a != 1. So
        each representative is the first in product order of its orbit's
        tuples with pivot coefficient 0, and they come in the order of the
        full product of ``monic_enum``.
        """
        degrees = tuple(degrees)
        if min(degrees, default=0) < 0:
            raise ValueError("negative degree")
        q = self.q
        pivot = next((k for k, d in enumerate(degrees) if d % q), None)
        size = (1 if pivot is None else q) * (q - 1) // 2
        # every coefficient below the top in product order, as (weight,
        # choices): scaling by a multiplies it by a^(-weight)
        slots = [
            ((d - j) % (q - 1), (0,) if (k, j) == (pivot, d - 1) else range(q))
            for k, d in enumerate(degrees)
            for j in range(d)
        ]
        spans = [(s - d, s) for d, s in zip(degrees, itertools.accumulate(degrees))]

        def walk(low, tied):
            if len(low) == len(slots):
                yield tuple([low[i:j] + ONE for i, j in spans]), size // (1 + len(tied))
                return
            w, choices = slots[len(low)]
            # a unit c is fixed by the scalings with a^(-w) = 1, and 0 by all
            fixed = [row for row in tied if row[w] == 1]
            for c in choices:
                for row in tied:
                    if c * row[w] % q < c:
                        break
                else:
                    yield from walk(low + (c,), fixed if c else tied)

        return walk((), self._scalings)

    def _grow_sieve(self, dmax: int) -> None:
        """Rebuild the sieve to degree dmax if it is shorter; the top block
        is most of the work, so nothing of the old sieve is reused."""
        if dmax <= self._sieve_degree:
            return
        estimate = _sieve_bytes(self.q, dmax)
        if estimate > MAX_SIEVE_BYTES:
            raise ValueError(
                f"the prime sieve of F_{self.q}[t] to degree {dmax} needs about "
                f"{estimate:.1e} bytes, above the limit {MAX_SIEVE_BYTES:.1e}"
            )
        self._spf, self._cof = _sieve(self.q, dmax)
        self._sieve_degree = dmax

    def _sieve_reaches(self, dmax: int) -> bool:
        """Grow the sieve to degree dmax when that sieve is within
        MAX_SIEVE_BYTES; True when the sieve then reaches dmax."""
        if dmax > self._sieve_degree and _sieve_bytes(self.q, dmax) <= MAX_SIEVE_BYTES:
            self._grow_sieve(dmax)
        return self._sieve_degree >= dmax

    def _prime_of_index(self, i: int) -> Poly:
        coeffs = []  # the base-q digits of i, the top one 1
        while i >= self.q:
            i, c = divmod(i, self.q)
            coeffs.append(c)
        return tuple(coeffs) + ONE

    def _index_of(self, f: Poly) -> int:
        i = 0
        for c in reversed(f):
            i = i * self.q + c
        return i

    def _primes_of_degree(self, d: int) -> tuple[Poly, ...]:
        """The monic primes of degree d, in ``monic_enum`` order: the
        unmarked entries of block d of the sieve, grown to degree d."""
        primes = self._prime_cache.get(d)
        if primes is None:
            self._grow_sieve(d)
            q = self.q
            idx = np.flatnonzero(self._spf[q**d : 2 * q**d] == 0) + q**d
            digits = _digits(q, d + 1, idx).T.tolist()  # top digit 1: p is monic
            primes = self._prime_cache[d] = tuple(sorted(map(tuple, digits)))
        return primes

    # -- factorization -----------------------------------------------------

    def factor(self, f: Poly) -> tuple[tuple[tuple[Poly, int], ...], int]:
        """Complete factorization into monic irreducibles.

        Returns ((prime, multiplicity), ...) sorted lexicographically, plus
        the leading unit. The factors are read off the sieve's spf and cof.
        ``factor`` grows the sieve to deg f when that sieve is within
        MAX_SIEVE_BYTES: the top block is most of its cost, so factoring
        every f of one degree costs about one sieve. Otherwise it
        trial-divides by the primes of degree 1, 2, ... while the
        remainder's degree is above the sieve's, growing the sieve to each
        such degree (at most half the remainder's), and raises ValueError
        only when the primes it still needs are above the limit.
        """
        if not f:
            raise ValueError("zero polynomial")
        cached = self._factor_cache.get(f)
        if cached is not None:
            return cached
        monic, unit = self.to_monic(f)
        self._sieve_reaches(degree(monic))
        rem = monic
        fac: dict[Poly, int] = {}
        d = 0
        while degree(rem) > self._sieve_degree:
            d += 1
            if 2 * d > degree(rem):
                # rem has no prime factor of degree < d, so it is prime
                fac[rem] = 1
                rem = ONE
                break
            # dividing out each prime of degree d leaves none of degree <= d
            for p in self._primes_of_degree(d):
                quo, r = self.divmod(rem, p)
                while not r:
                    fac[p] = fac.get(p, 0) + 1
                    rem = quo
                    quo, r = self.divmod(rem, p)
                if degree(rem) <= self._sieve_degree or 2 * d > degree(rem):
                    break
        i = self._index_of(rem)
        while i > 1:
            j = self._spf.item(i)
            p = self._prime_of_index(j or i)
            fac[p] = fac.get(p, 0) + 1
            i = self._cof.item(i) if j else 1
        result = (tuple(sorted(fac.items())), unit)
        self._factor_cache[f] = result
        return result

    def is_squarefree(self, f: Poly) -> bool:
        fac, _ = self.factor(f)
        return all(e == 1 for _, e in fac)

    # -- quadratic residue symbol -----------------------------------------

    def residue_symbol(self, f: Poly, g: Poly) -> int:
        """(f/g) by Euclidean reduction and quadratic reciprocity.

        Uses (f/g) = (f mod g / g), reciprocity (a/b) = (b/a) for monic
        coprime a, b (valid since q = 1 mod 4), and (c/g) = legendre(c)^deg g
        for constants c.
        """
        if not is_monic(g):
            raise ValueError("modulus must be monic")
        key = (f, g)
        cached = self._symbol_cache.get(key)
        if cached is not None:
            return cached
        out = self._symbol_euclid(f, g)
        self._symbol_cache[key] = out
        return out

    def _symbol_euclid(self, f: Poly, g: Poly) -> int:
        val = 1
        while True:
            if g == ONE:
                return val
            r = self.mod(f, g)
            if not r:
                return 0
            if degree(r) == 0:
                return val * (self.legendre[r[0]] if degree(g) % 2 else 1)
            r_monic, u = self.to_monic(r)
            if degree(g) % 2:
                val *= self.legendre[u]
            f, g = g, r_monic

SUPPORTED_Q = frozenset({5, 13, 17, 29})


@functools.lru_cache(maxsize=None)
def field(q: int) -> Fq:
    """Shared Fq context per supported modulus (caches primes and symbols)."""
    if q not in SUPPORTED_Q:
        raise ValueError(f"q={q} is not in the supported set {sorted(SUPPORTED_Q)}")
    return Fq(q)
