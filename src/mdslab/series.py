"""Truncated multivariate power series over Z[q^{±1/4}], and product forms.

A :class:`MultiSeries` is truncated by total degree. A finite product of
factors is one plain dict (:data:`Factors`), {(alpha, beta): gamma}
standing for the product of (1 - q^beta x^alpha)^(-gamma), with no gamma
0; beta is stored in quarter units like the
:class:`~mdslab.qlaurent.QLaurent` exponents. An infinite product is given
by families, arithmetic progressions of exponents that
:func:`progressions` lists up to a degree, merging the ones that meet.
One engine expands a product (:func:`_expand`): it holds the terms of a
box [0, B]^k by their flat int64 codes and keeps, after each factor, the
terms that a test passes. It holds each coefficient as one int, the
value at q^{g/4} = 2^w of the coefficient times a fixed power of q (g the
gcd of the factors' beta), and decodes every term once, at the end; the
digit width w comes from a bound on the coefficients that depends only
on the factors' alpha and gamma (:func:`_coeff_bound`).
:func:`expand_factors` keeps total degree <= B. :func:`expand_diagonal`
keeps, for its diagonal up to x^D, only the terms of the box [0, D]^k
that the factors still to come can carry to a point a·δ, δ = (1, ...,
1), a <= D. Every factor exponent is nonnegative, so a dropped term never
reaches a kept one and both truncated products are exact.
:meth:`MultiSeries.div` and :func:`factorize_product_form` read their
exponent vectors from :func:`~mdslab.reducer.tuples_with_sum_at_most`,
the one enumerator of bounded index vectors. ``div`` divides by forward
substitution over a schedule of coefficient pairs, with no inverse built
first; :meth:`MultiSeries.inverse` is 1 divided by the series.
:func:`check_diagonal_determination` divides two series generated by the
recurrence engine and checks that the ratio lives on the diagonal.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from math import comb, gcd

import numpy as np

from .qlaurent import QL_ONE, QL_ZERO, QLaurent
from .reducer import DiagonalSeed, reduce_coeff, tuples_with_sum_at_most

ExpVec = tuple[int, ...]
# A finite factor product: (alpha, beta): gamma stands for the factor
# (1 - q^beta x^alpha)^(-gamma), beta in quarter units; no gamma is 0.
Factors = dict[tuple[ExpVec, int], int]
# Largest estimated allocation of the reachability array of expand_diagonal,
# in bytes, sized like accel.MAX_SWEEP_BYTES.
MAX_BOX_BYTES = 2**30


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

    def div(self, other: "MultiSeries") -> "MultiSeries":
        """Quotient self / other up to the bound; other's constant term must be 1.

        Forward substitution: r[e] = self[e] - sum other[e1] * r[e - e1]
        over the pairs of :func:`_div_schedule`. In the lexicographic order
        of :func:`~mdslab.reducer.tuples_with_sum_at_most`, e - e1 comes
        before e for every 0 < e1 <= e, so each r[e - e1] is already known.
        """
        self._check_compat(other)
        if other.coeff((0,) * self.nvars) != QL_ONE:
            raise ValueError("series division requires a divisor with constant term 1")
        schedule = _div_schedule(other)
        out: dict[ExpVec, QLaurent] = {}
        for e in tuples_with_sum_at_most(self.nvars, self.bound):
            acc = self.terms.get(e, QL_ZERO)
            for c1, rest in schedule.get(e, ()):
                if rest in out:
                    acc = acc - c1 * out[rest]
            if acc:
                out[e] = acc
        return MultiSeries(self.nvars, self.bound, out)

    def inverse(self) -> "MultiSeries":
        # perfbench/spans.py wraps this method by name, so it stays as 1 / self
        return MultiSeries(self.nvars, self.bound, {(0,) * self.nvars: QL_ONE}).div(self)


def _div_schedule(divisor: MultiSeries) -> dict[ExpVec, list[tuple[QLaurent, ExpVec]]]:
    """For each e up to the bound, the pairs (divisor[e1], e - e1) over the
    nonzero exponents e1 <= e of the divisor's terms, e being e1 + rest
    with rest read from :func:`~mdslab.reducer.tuples_with_sum_at_most`."""
    schedule: dict[ExpVec, list[tuple[QLaurent, ExpVec]]] = {}
    for e1, c1 in divisor.terms.items():
        if any(e1):
            for rest in tuples_with_sum_at_most(divisor.nvars, divisor.bound - sum(e1)):
                schedule.setdefault(tuple(a + b for a, b in zip(e1, rest)), []).append((c1, rest))
    return schedule


def progressions(families: Factors, step: ExpVec, bound: int) -> Factors:
    """The factors of the families up to total degree ``bound``.

    A family (w, beta): gamma stands for the factors at w + m*step, m >= 0,
    each with beta and gamma; ``step`` has positive total degree. Families
    that meet add their gamma, and a sum 0 drops the factor.
    """
    out: Counter = Counter()
    size = sum(step)
    for (w, beta), gamma in families.items():
        for m in range((bound - sum(w)) // size + 1):
            out[(tuple(a + m * s for a, s in zip(w, step)), beta)] += gamma
    return {key: gamma for key, gamma in out.items() if gamma}


def _check_factors(factors: Factors, nvars: int) -> list:
    """The factors as sorted items, each exponent checked to have nvars
    entries, nonnegative and not all zero."""
    items = sorted(factors.items())
    for (alpha, _beta), _gamma in items:
        if len(alpha) != nvars:
            raise ValueError("factor arity mismatch")
        if min(alpha) < 0 or not any(alpha):
            raise ValueError(f"factor exponent {alpha} is not nonnegative and nonzero")
    return items


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


def enforce_box_limit(nvars: int, max_degree: int) -> None:
    """Raise ValueError, with the estimate, if the reachability array of
    :func:`expand_diagonal` over the box [0, max_degree]^nvars is too big.

    :func:`_last_live_step` holds about 8 bytes a cell of the box while it
    builds the array: the live and pulled masks, their temporaries and the
    int32 step of each cell.
    """
    estimate = 8 * (max_degree + 1) ** nvars
    if estimate > MAX_BOX_BYTES:
        raise ValueError(
            f"the diagonal to degree {max_degree} in {nvars} variables needs "
            f"about {estimate:.1e} bytes, above the limit {MAX_BOX_BYTES:.1e}"
        )


def _coeff_bound(factors: list, degree: int) -> int:
    """max over m <= degree of [z^m] prod (1 - z^|alpha|)^(-|gamma|).

    It bounds the sum of the absolute q-coefficients of every term of total
    degree <= ``degree`` of the product: the k-th term of (1 - y)^(-gamma)
    is at most that of (1 - y)^(-|gamma|) in absolute value, q^beta has
    norm 1, and setting each x_i to z adds the nonnegative bounds of all
    the terms of one total degree.
    """
    bound = [1] + [0] * degree
    for (alpha, _beta), gamma in factors:
        size = sum(alpha)
        for _ in range(abs(gamma)):
            for m in range(size, degree + 1):
                bound[m] += bound[m - size]
    return max(bound)


def _expand(
    factors: list, nvars: int, box: int, degree: int, keep
) -> tuple[np.ndarray, list[QLaurent]]:
    """Terms of the product in the box [0, box]^nvars, as exponent rows and
    their coefficients.

    The factors are the items of :func:`_check_factors`, taken in order. A
    term is held by its flat code, row-major in base box + 1; a box whose
    codes do not fit in int64 is refused. After factor i, a candidate e of
    the box is kept where keep(i, rows, codes) marks it, rows and codes
    being the candidates in the box. A term outside the box only grows, as every factor exponent is
    nonnegative (checked). So the truncated product is exact when keep
    drops only terms from which the factors still to come reach no term
    that is kept at the end.

    A coefficient is held as one int, the packed N of
    :mod:`mdslab.qlaurent` under q^{g/4} -> 2^w, g the gcd of the factors'
    beta: a product of two terms is a product of ints. A factor with
    beta < 0 is first multiplied by q^{k_max |beta|}, k_max its last power
    in the box, so that every exponent is a nonnegative multiple of g; the
    sum of these lifts, negated, is the low of every term, and the terms
    are decoded once, at the end. Every kept term has total degree <=
    ``degree``, so :func:`_coeff_bound` bounds its coefficients, and digits
    of w = bits(bound) + 2 bits decode them.
    """
    if (box + 1) ** nvars > np.iinfo(np.int64).max:
        raise ValueError(f"the codes of the box [0, {box}]^{nvars} do not fit in int64")
    place = (box + 1) ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    bits = _coeff_bound(factors, degree).bit_length() + 2
    g = gcd(*(beta for (_alpha, beta), _gamma in factors)) or 4
    lift = 0  # in steps of g
    exps = np.zeros((1, nvars), dtype=np.int64)  # the kept terms, as rows
    coeffs = [1]
    for i, ((alpha, beta), gamma) in enumerate(factors):
        kmax = _max_power(alpha, gamma, box)
        if not kmax:
            continue  # no term in the box
        step, base = beta // g, kmax if beta < 0 else 0
        lift -= step * base
        powers = [_power_coeff(gamma, k) << bits * step * (k - base) for k in range(kmax + 1)]
        # cand[k, t] = exps[t] + k * alpha
        cand = exps + np.arange(kmax + 1)[:, None, None] * np.array(alpha)
        ks, ts = np.nonzero(cand.max(axis=2) <= box)
        rows = cand[ks, ts]
        codes = rows @ place
        kept = keep(i, rows, codes)
        out: dict[int, int] = {}
        for k, t, f in zip(ks[kept].tolist(), ts[kept].tolist(), codes[kept].tolist()):
            prod = coeffs[t] * powers[k]
            out[f] = out[f] + prod if f in out else prod
        nonzero = {f: c for f, c in out.items() if c}
        coeffs = list(nonzero.values())
        exps = np.array(list(nonzero), dtype=np.int64)[:, None] // place % (box + 1)
    return exps, [QLaurent.unpack(-lift, c, bits, g) for c in coeffs]


def expand_factors(factors: Factors, nvars: int, bound: int) -> MultiSeries:
    """Exact expansion of the product, truncated at total degree <= bound."""
    items = _check_factors(factors, nvars)
    exps, coeffs = _expand(
        items, nvars, bound, bound, lambda i, rows, codes: rows.sum(axis=1) <= bound
    )
    return MultiSeries(nvars, bound, {tuple(e): c for e, c in zip(exps.tolist(), coeffs)})


def expand_diagonal(factors: Factors, nvars: int, max_degree: int) -> MultiSeries:
    """One-variable diagonal of the product: the coefficient of
    (x_1 ... x_nvars)^a as x^a, a <= max_degree.

    After factor i only the terms e in L_(i+1) are kept (see
    :func:`_last_live_step`): the points of the box [0, D]^nvars from which
    the factors still to come can reach a*delta, a <= D. A term outside
    L_(i+1) cannot reach the diagonal, so it is dropped exactly. L_(i+1) is
    not downward-closed, so each candidate is tested on its own.
    """
    items = _check_factors(factors, nvars)
    last = _last_live_step(items, nvars, max_degree)
    exps, coeffs = _expand(
        items, nvars, max_degree, nvars * max_degree, lambda i, rows, codes: last[codes] > i
    )
    # the terms left lie in L_len(factors), the diagonal
    diag = {(a,): c for a, c in zip(exps[:, 0].tolist(), coeffs)}
    return MultiSeries(1, max_degree, diag)


def factorize_product_form(s: MultiSeries) -> Factors:
    """Unique product form of a series with constant term 1.

    Peels factors degree by degree. The residual is s divided by every
    factor found so far, so its lowest nonconstant terms, of degree d, read
    off the degree-d factors term by term: the coefficient at x^alpha is
    the sum of gamma * q^beta. Dividing by those factors is multiplying by
    their expansion with gamma negated.
    """
    if s.coeff((0,) * s.nvars) != QL_ONE:
        raise ValueError("product form requires constant term 1")
    found: Factors = {}
    residual = s
    # the nonzero exponents by degree; the residual is divided after each
    exps = sorted(tuples_with_sum_at_most(s.nvars, s.bound), key=sum)[1:]
    for _, same_degree in groupby(exps, key=sum):
        inverse: Factors = {}
        for e in same_degree:
            for beta, gamma in residual.coeff(e).terms.items():
                found[(e, beta)] = gamma
                inverse[(e, beta)] = -gamma
        if inverse:
            residual = residual.mul(expand_factors(inverse, s.nvars, s.bound))
    return found


def check_diagonal_determination(
    n: int, seed1: DiagonalSeed, seed2: DiagonalSeed, bound: int
) -> dict:
    """The ratio of two generated series depends only on x_0 x_1 ... x_n.

    The ratio is one :meth:`MultiSeries.div` of the series of ``seed1`` by
    that of ``seed2``, both to total degree ``bound``.
    """
    nv = n + 1

    def series_of(seed: DiagonalSeed) -> MultiSeries:
        terms = {
            t: reduce_coeff(t, seed)
            for t in tuples_with_sum_at_most(nv, bound)
        }
        return MultiSeries(nv, bound, terms)

    ratio = series_of(seed1).div(series_of(seed2))
    for e, c in sorted(ratio.terms.items()):
        if len(set(e)) > 1 and c:
            return {"status": "fail", "witness": f"off-diagonal ratio term at {e}"}
    return {"status": "pass"}
