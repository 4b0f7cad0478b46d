"""Truncated multivariate power series over Z[q^{±1/4}], and product forms.

A :class:`MultiSeries` is truncated by total degree. A :class:`FactorList`
is a merged multiset of triples (alpha, beta, gamma) standing for the
product of (1 - q^beta x^alpha)^(-gamma); beta is stored in quarter units
like the :class:`~mdslab.qlaurent.QLaurent` exponents. An infinite product
is given by families, arithmetic progressions of exponents that
:func:`progressions` lists up to a degree. One engine expands a product
(:func:`_expand`): it holds the terms of a box [0, B]^k by their flat
int64 codes and keeps, after each factor, the terms that a test passes.
:func:`expand_factors` keeps total degree <= B. :func:`expand_diagonal`
keeps, for its diagonal up to x^D, only the terms of the box [0, D]^k
that the factors still to come can carry to a point a·δ, δ = (1, ...,
1), a <= D. Every factor exponent is nonnegative, so a dropped term never
reaches a kept one and both truncated products are exact.
:meth:`MultiSeries.inverse` and :func:`factorize_product_form` read their
exponent vectors from :func:`~mdslab.reducer.tuples_with_sum_at_most`,
the one enumerator of bounded index vectors.
"""

from __future__ import annotations

from itertools import groupby
from math import comb

import numpy as np

from .qlaurent import QL_ONE, QL_ZERO, QLaurent
from .reducer import tuples_with_sum_at_most

ExpVec = tuple[int, ...]


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
        zero = (0,) * self.nvars
        inv: dict[ExpVec, QLaurent] = {zero: QL_ONE}
        # in lexicographic order e - e1 comes before e for every 0 < e1 <= e
        for e in tuples_with_sum_at_most(self.nvars, self.bound):
            if e == zero:
                continue
            acc = QL_ZERO
            for e1, c1 in self.terms.items():
                if e1 == zero or any(a > b for a, b in zip(e1, e)):
                    continue
                rest = tuple(b - a for a, b in zip(e1, e))
                c2 = inv.get(rest)
                if c2 is not None:
                    acc = acc + c1 * c2
            if acc:
                inv[e] = -acc
        return MultiSeries(self.nvars, self.bound, inv)


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

    def restrict(self, predicate) -> "FactorList":
        return FactorList({k: g for k, g in self.factors.items() if predicate(*k)})

    def degree_cut(self, max_degree: int) -> "FactorList":
        return self.restrict(lambda a, b: sum(a) <= max_degree)

    def diagonal_part(self) -> "FactorList":
        return self.restrict(lambda a, b: len(set(a)) == 1)

    def off_diagonal_part(self) -> "FactorList":
        return self.restrict(lambda a, b: len(set(a)) > 1)


def progressions(
    families: dict[tuple[ExpVec, int], int], step: ExpVec, bound: int
) -> FactorList:
    """The factors of the families up to total degree ``bound``.

    A family (w, beta): gamma stands for the factors at w + m*step, m >= 0,
    each with beta and gamma; ``step`` has positive total degree.
    """
    fl = FactorList()
    size = sum(step)
    for (w, beta), gamma in families.items():
        for m in range((bound - sum(w)) // size + 1):
            fl.add(tuple(a + m * s for a, s in zip(w, step)), beta, gamma)
    return fl


def _check_factors(factors, nvars: int) -> None:
    for (alpha, _beta), _gamma in factors:
        if len(alpha) != nvars:
            raise ValueError("factor arity mismatch")
        if min(alpha) < 0 or not any(alpha):
            raise ValueError(f"factor exponent {alpha} is not nonnegative and nonzero")


def _power_coeff(gamma: int, k: int) -> int:
    """Coefficient of the k-th term of (1 - y)^(-gamma)."""
    return comb(gamma - 1 + k, k) if gamma > 0 else (-1) ** k * comb(-gamma, k)


def _max_power(alpha: ExpVec, gamma: int, max_degree: int) -> int:
    """Largest k with k*alpha in the box [0, max_degree]^nvars that the
    factor (1 - q^beta x^alpha)^(-gamma) has a k-th term for."""
    k = min(max_degree // a for a in alpha if a)
    return k if gamma > 0 else min(k, -gamma)


def _last_live_step(factors, nvars: int, max_degree: int) -> np.ndarray:
    """For each point e of the box [0, D]^nvars, flattened row-major, the
    last step i at which e can still reach the diagonal, or -1.

    L_i is the set of e with e + r = a*delta for some a <= D and some r in
    the support of the product of factors i, i+1, .... L_len(factors) is
    the diagonal, and L_i is L_(i+1) pulled back along the multiples of
    alpha_i. The sets only grow as i falls, so one array of each point's
    largest i holds all of them.
    """
    shape = (max_degree + 1,) * nvars
    live = np.zeros(shape, dtype=bool)
    live[(np.arange(max_degree + 1),) * nvars] = True
    last = np.full(shape, -1, dtype=np.int32)
    last[live] = len(factors)
    for i in range(len(factors) - 1, -1, -1):
        (alpha, _beta), gamma = factors[i]
        kmax = _max_power(alpha, gamma, max_degree)
        if not kmax:
            continue
        pulled = live.copy()
        for k in range(1, kmax + 1):
            dst = tuple(slice(0, max_degree + 1 - k * a) for a in alpha)
            src = tuple(slice(k * a, None) for a in alpha)
            pulled[dst] |= live[src]
        last[pulled & ~live] = i
        live = pulled
    return last.ravel()


def _expand(fl: FactorList, nvars: int, box: int, keep) -> tuple[np.ndarray, list[QLaurent]]:
    """Terms of the product in the box [0, box]^nvars, as exponent rows and
    their coefficients.

    The factors are taken in ``fl.items()`` order. A term is held by its
    flat code, row-major in base box + 1; a box whose codes do not fit in
    int64 is refused. After factor i, a candidate e of the box is kept where
    keep(i, rows, codes) marks it, rows and codes being the candidates in
    the box. A term outside the box only grows, as every factor exponent is
    nonnegative (checked). So the truncated product is exact when keep
    drops only terms from which the factors still to come reach no term
    that is kept at the end.
    """
    factors = fl.items()
    _check_factors(factors, nvars)
    if (box + 1) ** nvars > np.iinfo(np.int64).max:
        raise ValueError(f"the codes of the box [0, {box}]^{nvars} do not fit in int64")
    place = (box + 1) ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    exps = np.zeros((1, nvars), dtype=np.int64)  # the kept terms, as rows
    coeffs = [QL_ONE]
    for i, ((alpha, beta), gamma) in enumerate(factors):
        kmax = _max_power(alpha, gamma, box)
        if not kmax:
            continue  # no term in the box
        powers = [QL_ONE] + [
            QLaurent.q_power(k * beta, _power_coeff(gamma, k)) for k in range(1, kmax + 1)
        ]
        # cand[k, t] = exps[t] + k * alpha
        cand = exps + np.arange(kmax + 1)[:, None, None] * np.array(alpha)
        ks, ts = np.nonzero(cand.max(axis=2) <= box)
        rows = cand[ks, ts]
        codes = rows @ place
        kept = keep(i, rows, codes)
        out: dict[int, QLaurent] = {}
        for k, t, f in zip(ks[kept].tolist(), ts[kept].tolist(), codes[kept].tolist()):
            prod = coeffs[t] * powers[k] if k else coeffs[t]
            out[f] = out[f] + prod if f in out else prod
        nonzero = {f: c for f, c in out.items() if c}
        coeffs = list(nonzero.values())
        exps = np.array(list(nonzero), dtype=np.int64)[:, None] // place % (box + 1)
    return exps, coeffs


def expand_factors(fl: FactorList, nvars: int, bound: int) -> MultiSeries:
    """Exact expansion of the product, truncated at total degree <= bound."""
    exps, coeffs = _expand(fl, nvars, bound, lambda i, rows, codes: rows.sum(axis=1) <= bound)
    return MultiSeries(nvars, bound, {tuple(e): c for e, c in zip(exps.tolist(), coeffs)})


def expand_diagonal(fl: FactorList, nvars: int, max_degree: int) -> MultiSeries:
    """One-variable diagonal of the product: the coefficient of
    (x_1 ... x_nvars)^a as x^a, a <= max_degree.

    After factor i only the terms e in L_(i+1) are kept (see
    :func:`_last_live_step`): the points of the box [0, D]^nvars from which
    the factors still to come can reach a*delta, a <= D. A term outside
    L_(i+1) cannot reach the diagonal, so it is dropped exactly. L_(i+1) is
    not downward-closed, so each candidate is tested on its own.
    """
    last = _last_live_step(fl.items(), nvars, max_degree)
    exps, coeffs = _expand(fl, nvars, max_degree, lambda i, rows, codes: last[codes] > i)
    # the terms left lie in L_len(factors), the diagonal
    diag = {(a,): c for a, c in zip(exps[:, 0].tolist(), coeffs)}
    return MultiSeries(1, max_degree, diag)


def factorize_product_form(s: MultiSeries) -> FactorList:
    """Unique product form of a series with constant term 1.

    Peels factors degree by degree. The residual is s divided by every
    factor found so far, so its lowest nonconstant terms, of degree d, read
    off the degree-d factors term by term: the coefficient at x^alpha is
    the sum of gamma * q^beta. Dividing by those factors is multiplying by
    their expansion with gamma negated.
    """
    if s.coeff((0,) * s.nvars) != QL_ONE:
        raise ValueError("product form requires constant term 1")
    found = FactorList()
    residual = s
    # the nonzero exponents by degree; the residual is divided after each
    exps = sorted(tuples_with_sum_at_most(s.nvars, s.bound), key=sum)[1:]
    for _, same_degree in groupby(exps, key=sum):
        inverse = FactorList()
        for e in same_degree:
            for beta, gamma in sorted(residual.coeff(e).terms.items()):
                found.add(e, beta, gamma)
                inverse.add(e, beta, -gamma)
        if len(inverse):
            residual = residual.mul(expand_factors(inverse, s.nvars, s.bound))
    return found


def split_flat_natural_sharp(fl: FactorList) -> tuple[FactorList, FactorList, FactorList]:
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
