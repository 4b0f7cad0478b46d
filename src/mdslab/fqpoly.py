"""Exact arithmetic in F_q[t] for prime q with q = 1 mod 4.

Polynomials are immutable coefficient tuples, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple. All operations live
on the :class:`Fq` context object, which caches prime tables,
factorizations and residue symbols for the small degrees this library
works at.

The quadratic residue symbol comes in two independent implementations:
a factorization-based oracle (Euler's criterion prime by prime) and a fast
Euclidean-reciprocity path. Tests require them to agree.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)


def degree(f: Poly) -> int:
    """Degree of f; the zero polynomial gets the sentinel -1."""
    return len(f) - 1


def is_monic(f: Poly) -> bool:
    return bool(f) and f[-1] == 1


def _trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


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

    def __repr__(self) -> str:
        return f"Fq({self.q})"

    # -- ring operations ---------------------------------------------------

    def poly(self, coeffs) -> Poly:
        return _trim([c % self.q for c in coeffs])

    def add(self, f: Poly, g: Poly) -> Poly:
        n = max(len(f), len(g))
        return _trim([
            ((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % self.q
            for i in range(n)
        ])

    def sub(self, f: Poly, g: Poly) -> Poly:
        n = max(len(f), len(g))
        return _trim([
            ((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % self.q
            for i in range(n)
        ])

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

    def gcd(self, f: Poly, g: Poly) -> Poly:
        while g:
            f, g = g, self.mod(f, g)
        if f:
            f = self.to_monic(f)[0]
        return f

    def to_monic(self, f: Poly) -> tuple[Poly, int]:
        """Return (monic part, leading unit) with f = unit * monic."""
        if not f:
            raise ValueError("zero polynomial")
        u = f[-1]
        if u == 1:
            return f, 1
        return self.scalar_mul(pow(u, self.q - 2, self.q), f), u

    def pow(self, f: Poly, e: int) -> Poly:
        out = ONE
        while e:
            if e & 1:
                out = self.mul(out, f)
            f = self.mul(f, f)
            e >>= 1
        return out

    def pow_mod(self, f: Poly, e: int, m: Poly) -> Poly:
        out = ONE
        f = self.mod(f, m)
        while e:
            if e & 1:
                out = self.mod(self.mul(out, f), m)
            f = self.mod(self.mul(f, f), m)
            e >>= 1
        return out

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

    @functools.lru_cache(maxsize=None)
    def _primes_of_degree(self, d: int) -> tuple[Poly, ...]:
        # Sieve by trial division against all lower-degree primes.
        out = []
        for f in self.monic_enum(d):
            if d == 1 or self._is_irreducible(f):
                out.append(f)
        return tuple(out)

    def _is_irreducible(self, f: Poly) -> bool:
        d = degree(f)
        for e in range(1, d // 2 + 1):
            for p in self._primes_of_degree(e):
                if not self.mod(f, p):
                    return False
        return True

    # -- factorization -----------------------------------------------------

    def factor(self, f: Poly) -> tuple[tuple[tuple[Poly, int], ...], int]:
        """Complete factorization into monic irreducibles.

        Returns ((prime, multiplicity), ...) sorted lexicographically, plus
        the leading unit. Trial division only; degrees here stay small.
        """
        if not f:
            raise ValueError("zero polynomial")
        cached = self._factor_cache.get(f)
        if cached is not None:
            return cached
        monic, unit = self.to_monic(f)
        rem = monic
        fac: dict[Poly, int] = {}
        d = 1
        while degree(rem) > 0:
            if 2 * d > degree(rem):
                fac[rem] = fac.get(rem, 0) + 1
                break
            progressed = True
            while progressed and degree(rem) > 0:
                progressed = False
                for p in self._primes_of_degree(d):
                    quo, r = self.divmod(rem, p)
                    while not r:
                        fac[p] = fac.get(p, 0) + 1
                        rem = quo
                        progressed = True
                        if degree(rem) == 0:
                            break
                        quo, r = self.divmod(rem, p)
            d += 1
        result = (tuple(sorted(fac.items())), unit)
        self._factor_cache[f] = result
        return result

    def squarefree_part(self, f: Poly) -> Poly:
        """Product of primes dividing monic f to odd multiplicity."""
        if not is_monic(f):
            raise ValueError("squarefree_part requires a monic polynomial")
        fac, _ = self.factor(f)
        out = ONE
        for p, e in fac:
            if e % 2:
                out = self.mul(out, p)
        return out

    def is_squarefree(self, f: Poly) -> bool:
        fac, _ = self.factor(f)
        return all(e == 1 for _, e in fac)

    def is_square(self, f: Poly) -> bool:
        fac, _ = self.factor(f)
        return all(e % 2 == 0 for _, e in fac)

    # -- quadratic residue symbol -----------------------------------------

    def residue_symbol_factored(self, f: Poly, g: Poly) -> int:
        """(f/g) by factoring g and applying Euler's criterion per prime."""
        if not is_monic(g):
            raise ValueError("modulus must be monic")
        if g == ONE:
            return 1
        if not f:
            return 0
        out = 1
        fac, _ = self.factor(g)
        for p, e in fac:
            r = self.mod(f, p)
            if not r:
                return 0
            s = self.pow_mod(r, (self.q ** degree(p) - 1) // 2, p)
            val = 1 if s == ONE else -1
            if e % 2:
                out *= val
        return out

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

    def zeta_coeff(self, d: int) -> int:
        """Coefficient of x^d in (1 - qx)^{-1}: the number of monic polys."""
        return self.q ** d


SUPPORTED_Q = frozenset({5, 13, 17, 29})


@functools.lru_cache(maxsize=None)
def field(q: int) -> Fq:
    """Shared Fq context per supported modulus (caches primes and symbols)."""
    if q not in SUPPORTED_Q:
        raise ValueError(f"q={q} is not in the supported set {sorted(SUPPORTED_Q)}")
    return Fq(q)
