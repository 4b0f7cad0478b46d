"""Global weights glued from local ones by twisted multiplicativity.

H on an arbitrary monic tuple is the product of the prime-support local
weights times a correction by cross residue symbols between distinct
primes. Everything here is exact integer arithmetic at the ambient q.

The one-variable slices of ``l_series_H`` do not sum H over every f: they
split f into a part smooth over the fixed entries' primes and a coprime
part, whose contribution is one residue character summed by the ``accel``
sweep (``_slice_coeffs``). Each smooth part is an exponent vector written
into slot i of the fixed entries' prime support, and H is glued from that
support, so no polynomial is multiplied out or factored again.
``l_series_H`` clears the pole of a slice and runs ``check_reversal`` on
it, returning ``{"status", "witness"}``. The local-to-global sums of
``global_coeff_sum`` go through the same split: the sum over the slot of
largest degree is one slice coefficient. The brute sums, of H over every
f and over every monic tuple, stay in the tests as the oracles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import accel
from .fqpoly import ONE, Fq, degree, is_monic
from .reducer import DiagonalSeed, local_weight_value, check_reversal

BUDGET = 10**8


def _prime_support(fq: Fq, polys: tuple) -> dict:
    """{prime: valuation vector} over the primes dividing some entry."""
    n1 = len(polys)
    support: dict[tuple, list[int]] = {}
    for i, f in enumerate(polys):
        if not is_monic(f):
            raise ValueError("weights are defined on monic tuples")
        if degree(f) == 0:
            continue
        for p, mult in fq.factor(f)[0]:
            support.setdefault(p, [0] * n1)[i] = mult
    return {p: tuple(vec) for p, vec in support.items()}


def H_global(fq: Fq, polys: tuple, seed: DiagonalSeed) -> int:
    """Weight of a monic tuple: local weights glued with the cyclic twist.

    The twist between two primes p, r with valuation vectors u, v is
    (p/r) raised to sum_i u_i v_{i+1} + v_i u_{i+1} (indices cyclic).
    """
    return _glue(fq, _prime_support(fq, polys), seed)


def _glue(fq: Fq, support: dict, seed: DiagonalSeed) -> int:
    # H from the prime support {prime: valuation vector} (see H_global)
    cache = seed._weight_caches.setdefault(fq.q, {})
    value = 1
    primes = list(support)
    for p in primes:
        key = (len(p), support[p])
        w = cache.get(key)
        if w is None:
            w = local_weight_value(len(p) - 1, fq.q, support[p], seed)
            cache[key] = w
        if w == 0:
            return 0
        value *= w
    for a, p in enumerate(primes):
        u = support[p]
        n1 = len(u)
        for r in primes[a + 1 :]:
            if fq.residue_symbol(p, r) == 1:
                continue
            v = support[r]
            parity = 0
            for i in range(n1):
                j = i + 1 - n1 * (i + 1 == n1)
                parity ^= (u[i] * v[j] ^ v[i] * u[j]) & 1
            if parity:
                value = -value
    return value


def _check_budget(q0: int, total: int, n1: int) -> None:
    # total is the summed degree of the slots the caller enumerates
    cost = n1 * q0**total
    if cost > BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: {n1} * {q0}^{total} = {cost} > {BUDGET}"
        )


def global_coeff_sum(fq: Fq, t: tuple[int, ...], seed: DiagonalSeed) -> int:
    """Sum of H over all monic tuples of the given degrees.

    By the local-to-global principle this equals c_t evaluated at q. The
    sum over the slot i with the largest degree is coefficient t_i of the
    one-variable slice with the other entries fixed (``_slice_coeffs``), so
    only the other slots are enumerated, and only they count against
    ``BUDGET``.
    """
    t = tuple(t)
    _check_budget(fq.q, sum(t) - max(t), len(t))
    i = t.index(max(t))
    pools = [fq.monic_enum(a) for a in t[:i] + t[i + 1 :]]
    return sum(
        _slice_coeffs(fq, rest[:i] + (ONE,) + rest[i:], i, t[i], seed)[t[i]]
        for rest in itertools.product(*pools)
    )


def _smooth_parts(support, bound: int) -> list[tuple[int, dict]]:
    """Every monic product of the given primes of degree at most bound, as
    (degree, {prime: exponent}) with the zero exponents left out."""
    out = [(0, {})]
    for p in support:
        dp = degree(p)
        step = []
        for d, exps in out:
            step.append((d, exps))
            for e in range(1, (bound - d) // dp + 1):
                step.append((d + e * dp, {**exps, p: e}))
        out = step
    return out


def l_series_H(
    fq: Fq, fixed: tuple, i: int, xbound: int, seed: DiagonalSeed
) -> dict:
    """Functional equation of the single-variable slice
    L(x) = sum_{f_i} H x^{deg f_i}, read to degree xbound.

    s = deg f_{i-1} + deg f_{i+1} (cyclic). Odd s: L is a polynomial of
    degree s - 1 with the reversal of ``check_reversal``. Even s: the
    cleared numerator (1 - qx) L(x) has degree s and the same reversal.
    """
    n1 = len(fixed)
    s = degree(fixed[(i - 1) % n1]) + degree(fixed[(i + 1) % n1])
    if xbound < (s - 1 if s % 2 else s + 1):
        raise ValueError("xbound too small to see the functional equation")
    coeffs = _slice_coeffs(fq, fixed, i, xbound, seed)
    if s % 2 == 0:
        coeffs = [c - fq.q * p for c, p in zip(coeffs, [0] + coeffs)]
    q = Fraction(fq.q)
    return check_reversal(coeffs, s - s % 2, lambda j: q**j)


def _slice_coeffs(fq: Fq, fixed: tuple, i: int, xbound: int, seed: DiagonalSeed) -> list[int]:
    """Coefficients 0..xbound of the slice sum_{f_i} H x^{deg f_i}.

    They come from the coprime split. Let S be the primes of the fixed
    entries f_j, j != i, and g = f_{i-1} f_{i+1}. Write f = f_s f_c with
    f_s S-smooth and f_c coprime to S. Every prime of f_c sits in slot i
    alone, so its local weight is 1, it twists trivially with the other
    primes of f_c, and its twists with S multiply to (f_c / g). Hence
    H(fixed with f) = H(fixed with f_s) (f_c / g), and

        c_d = sum over S-smooth f_s of H(fixed with f_s) T[d - deg f_s],

    where T[m] sums (f_c / g r^2) over monic f_c of degree m, and r is the
    product of the primes of S that do not divide g: the even power of r
    masks the f_c that share a prime with it, and (f_c / g) already
    vanishes on those that share one with g. The brute sum of H over every
    f is the oracle in the tests.
    """
    n1 = len(fixed)
    support = _prime_support(fq, fixed[:i] + (ONE,) + fixed[i + 1 :])
    r = ONE
    for p, vec in support.items():
        if not vec[(i - 1) % n1] and not vec[(i + 1) % n1]:
            r = fq.mul(r, p)
    g = fq.mul(fixed[(i - 1) % n1], fixed[(i + 1) % n1])
    sums = accel.symbol_sums_by_degree(fq, fq.mul(g, fq.mul(r, r)), xbound).tolist()
    coeffs = [0] * (xbound + 1)
    for e, exps in _smooth_parts(support, xbound):
        # f_s's exponents go into slot i of the fixed entries' support
        glued = {
            p: vec[:i] + (exps[p],) + vec[i + 1 :] if p in exps else vec
            for p, vec in support.items()
        }
        h = _glue(fq, glued, seed)
        if h:
            for d in range(e, xbound + 1):
                coeffs[d] += h * sums[d - e]
    return coeffs
