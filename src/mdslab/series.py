"""Truncated multivariate power series over Z[q^{±1/4}], and product forms.

A :class:`MultiSeries` is truncated by total degree. A :class:`FactorList`
is a merged multiset of triples (alpha, beta, gamma) standing for the
product of (1 - q^beta x^alpha)^(-gamma); beta is stored in quarter units
like the :class:`~mdslab.qlaurent.QLaurent` exponents.
"""

from __future__ import annotations

import itertools
from math import comb

from .qlaurent import QL_ONE, QL_ZERO, QLaurent

ExpVec = tuple[int, ...]


def _exps_of_degree(nvars: int, d: int):
    """All exponent vectors of total degree exactly d, lexicographic."""
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _exps_of_degree(nvars - 1, d - first):
            yield (first,) + rest


class MultiSeries:
    """Power series in nvars variables, truncated at total degree <= bound."""

    __slots__ = ("nvars", "bound", "terms")

    def __init__(self, nvars: int, bound: int, terms: dict[ExpVec, QLaurent] | None = None):
        self.nvars = nvars
        self.bound = bound
        self.terms: dict[ExpVec, QLaurent] = {}
        if terms:
            for e, c in terms.items():
                if sum(e) <= bound and c:
                    self.terms[e] = c

    @staticmethod
    def one(nvars: int, bound: int) -> "MultiSeries":
        return MultiSeries(nvars, bound, {(0,) * nvars: QL_ONE})

    def coeff(self, exp: ExpVec) -> QLaurent:
        return self.terms.get(tuple(exp), QL_ZERO)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiSeries)
            and self.nvars == other.nvars
            and self.bound == other.bound
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"MultiSeries(nvars={self.nvars}, bound={self.bound}, {n} terms)"

    def add(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compat(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, QL_ZERO) + c
        return MultiSeries(self.nvars, self.bound, out)

    def sub(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compat(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, QL_ZERO) - c
        return MultiSeries(self.nvars, self.bound, out)

    def scale(self, c: QLaurent) -> "MultiSeries":
        return MultiSeries(self.nvars, self.bound, {e: v * c for e, v in self.terms.items()})

    def _check_compat(self, other: "MultiSeries") -> None:
        if self.nvars != other.nvars or self.bound != other.bound:
            raise ValueError("series shape mismatch (nvars/bound)")

    def mul(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compat(other)
        out: dict[ExpVec, QLaurent] = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > self.bound:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if e in out:
                    out[e] = out[e] + prod
                else:
                    out[e] = prod
        return MultiSeries(self.nvars, self.bound, out)

    def inverse(self) -> "MultiSeries":
        """Multiplicative inverse up to the bound; constant term must be 1."""
        const = self.terms.get((0,) * self.nvars, QL_ZERO)
        if const != QL_ONE:
            raise ValueError("series inverse requires constant term 1")
        inv: dict[ExpVec, QLaurent] = {(0,) * self.nvars: QL_ONE}
        for d in range(1, self.bound + 1):
            for e in _exps_of_degree(self.nvars, d):
                acc = QL_ZERO
                for e1, c1 in self.terms.items():
                    if e1 == (0,) * self.nvars or any(a > b for a, b in zip(e1, e)):
                        continue
                    rest = tuple(b - a for a, b in zip(e1, e))
                    c2 = inv.get(rest)
                    if c2 is not None:
                        acc = acc + c1 * c2
                if acc:
                    inv[e] = -acc
        return MultiSeries(self.nvars, self.bound, inv)

    def diag_part(self) -> "MultiSeries":
        """Single-variable series of the all-equal-exponent terms."""
        out: dict[ExpVec, QLaurent] = {}
        for e, c in self.terms.items():
            if len(set(e)) <= 1:
                out[(e[0] if e else 0,)] = c
        return MultiSeries(1, self.bound // max(1, self.nvars), out)

    def single_var_coeffs(self, upto: int | None = None) -> list[QLaurent]:
        if self.nvars != 1:
            raise ValueError("not a single-variable series")
        hi = self.bound if upto is None else upto
        return [self.terms.get((d,), QL_ZERO) for d in range(hi + 1)]


class FactorList:
    """Merged multiset of (alpha, beta, gamma): product of (1-q^b x^a)^(-g).

    beta is in quarter units; gamma is a (possibly negative) integer
    multiplicity; entries with gamma 0 are dropped.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: dict[tuple[ExpVec, int], int] | None = None):
        self.factors = {k: g for k, g in (factors or {}).items() if g}

    def add(self, alpha: ExpVec, beta_quarters: int, gamma: int) -> None:
        if all(a == 0 for a in alpha):
            raise ValueError("zero exponent vector in factor list")
        key = (tuple(alpha), beta_quarters)
        g = self.factors.get(key, 0) + gamma
        if g:
            self.factors[key] = g
        else:
            self.factors.pop(key, None)

    def items(self):
        return sorted(self.factors.items())

    def __len__(self) -> int:
        return len(self.factors)

    def __eq__(self, other) -> bool:
        return isinstance(other, FactorList) and self.factors == other.factors

    def __repr__(self) -> str:
        return f"FactorList({len(self.factors)} merged factors)"

    def copy(self) -> "FactorList":
        return FactorList(dict(self.factors))

    def restrict(self, predicate) -> "FactorList":
        return FactorList({k: g for k, g in self.factors.items() if predicate(*k)})

    def degree_cut(self, max_degree: int) -> "FactorList":
        return self.restrict(lambda a, b: sum(a) <= max_degree)

    def diagonal_part(self) -> "FactorList":
        return self.restrict(lambda a, b: len(set(a)) == 1)

    def off_diagonal_part(self) -> "FactorList":
        return self.restrict(lambda a, b: len(set(a)) > 1)

    def beta_reflected(self) -> "FactorList":
        """Image under beta |-> 1 - beta (Property of the paired factors)."""
        return FactorList({(a, 4 - b): g for (a, b), g in self.factors.items()})


def expand_factors(fl: FactorList, nvars: int, bound: int) -> MultiSeries:
    """Exact expansion of the product, truncated at total degree <= bound."""
    out = MultiSeries.one(nvars, bound)
    for (alpha, beta), gamma in fl.items():
        if len(alpha) != nvars:
            raise ValueError("factor arity mismatch")
        adeg = sum(alpha)
        if adeg <= 0:
            raise ValueError("factor with nonpositive total degree")
        if adeg > bound:
            continue
        terms: dict[ExpVec, QLaurent] = {}
        kmax = bound // adeg
        for k in range(kmax + 1):
            if gamma > 0:
                c = comb(gamma - 1 + k, k)
            else:
                if k > -gamma:
                    continue
                c = (-1) ** k * comb(-gamma, k)
            terms[tuple(k * a for a in alpha)] = QLaurent.q_power(k * beta, c)
        out = out.mul(MultiSeries(nvars, bound, terms))
    return out


def factorize_product_form(s: MultiSeries) -> FactorList:
    """Unique product form of a series with constant term 1.

    Peels factors degree by degree: after dividing out all factors found
    below degree d, the residual coefficient at each degree-d monomial
    x^alpha is read off term by term as sum of gamma * q^beta.
    """
    if s.coeff((0,) * s.nvars) != QL_ONE:
        raise ValueError("product form requires constant term 1")
    found = FactorList()
    for d in range(1, s.bound + 1):
        residual = s.mul(expand_factors(found, s.nvars, s.bound).inverse())
        for e in _exps_of_degree(s.nvars, d):
            c = residual.coeff(e)
            for beta, gamma in sorted(c.terms.items()):
                found.add(e, beta, gamma)
    return found


def split_flat_natural_sharp(
    fl: FactorList, strict: bool = True
) -> tuple[FactorList, FactorList, FactorList]:
    """Partition factors by beta <= 0 (flat), beta = 1/2 (natural),
    beta >= 1 (sharp). Anything else is an anomaly."""
    flat, natural, sharp = FactorList(), FactorList(), FactorList()
    anomalies = []
    for (alpha, beta), gamma in fl.items():
        if beta <= 0:
            flat.add(alpha, beta, gamma)
        elif beta == 2:
            natural.add(alpha, beta, gamma)
        elif beta >= 4:
            sharp.add(alpha, beta, gamma)
        else:
            anomalies.append((alpha, beta, gamma))
    if anomalies:
        if strict:
            raise ValueError(f"factors with beta strictly between 0 and 1: {anomalies}")
    return flat, natural, sharp


def pairing_completion(flat: FactorList) -> FactorList:
    """Add the beta |-> 1 - beta partner of every factor (all beta <= 0)."""
    out = FactorList()
    for (alpha, beta), gamma in flat.items():
        if beta > 0:
            raise ValueError("pairing completion expects beta <= 0 input")
        out.add(alpha, beta, gamma)
        out.add(alpha, 4 - beta, gamma)
    return out


def build_delta(n: int, bound: int) -> FactorList:
    """Factor list of the deformed Weyl denominator for the (n+1)-cycle.

    Factors (1 - q * (q x_0^2 ... q x_n^2)^m * (q x_i^2 ... q x_j^2)) over
    cyclic windows i..j (all residues mod n+1, full cycle excluded), each
    with multiplicity -1, cut at total degree <= bound.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    fl = FactorList()
    nv = n + 1
    m = 0
    while 2 * m * nv + 2 <= bound:
        for i in range(nv):
            for length in range(1, nv):  # window lengths 1..n, no full cycle
                if 2 * m * nv + 2 * length > bound:
                    break
                alpha = [2 * m] * nv
                for k in range(length):
                    alpha[(i + k) % nv] += 2
                beta = 4 * (1 + m * nv + length)
                fl.add(tuple(alpha), beta, -1)
        m += 1
    return fl
