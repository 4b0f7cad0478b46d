"""Global weights glued from local ones by twisted multiplicativity.

H on an arbitrary monic tuple is the product of the prime-support local
weights times a correction by cross residue symbols between distinct
primes. Everything here is exact integer arithmetic at the ambient q.

The one-variable slices of ``l_series_H`` do not sum H over every f
(``_slice_coeffs``). The exponent in slot i of a prime p of the fixed
entries enters H only through p's local weight and p's twists with the
primes of slots i - 1 and i + 1, so the part of f smooth over those primes
contributes an Euler product, one factor per prime, and the part coprime to
them one residue character, summed by the ``accel`` sweep. Unless the
product of slots i - 1 and i + 1 is a square, that character is
nontrivial, and its complete sums vanish from the degree of its conductor
on, so the sweep stops there. ``l_series_H`` clears the pole of a slice
and runs ``check_reversal`` on it, returning ``{"status", "witness"}``.
The local-to-global sums of ``global_coeff_sum`` go through the same
slices: the sum over the slot of largest degree is one slice coefficient.
The brute sums, of H over every f and over every monic tuple, and the
enumeration of every smooth part stay in the tests as the oracles.
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
    for p, vec in support.items():
        w = _weight(fq, cache, p, vec, seed)
        if w == 0:
            return 0
        value *= w
    return value * _twist_sign(fq, support)


def _weight(fq: Fq, cache: dict, p: tuple, vec: tuple, seed: DiagonalSeed) -> int:
    # the local weight at a prime p with valuation vector vec, cached by
    # (deg p + 1, vec) in the seed's cache for q
    key = (len(p), vec)
    w = cache.get(key)
    if w is None:
        w = cache[key] = local_weight_value(len(p) - 1, fq.q, vec, seed)
    return w


def _twist_sign(fq: Fq, support: dict) -> int:
    # the product of the cyclic twists between the primes of the support
    value = 1
    primes = list(support)
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
    """Coefficients 0..xbound of the slice sum_{f_i} H x^{deg f_i}, as an
    Euler product over S, the primes of the fixed entries f_j, j != i.

    Write f = f_s f_c with f_s = prod_{p in S} p^{e_p} and f_c coprime to
    S, and let v_p be p's valuation vector with slot i at 0. The twist
    parity of two primes meets slot i only through
    u_i (v_{i-1} + v_{i+1}) + v_i (u_{i-1} + u_{i+1}), never through
    u_i v_i. So every prime of f_c has local weight 1, twists trivially
    with the other primes of f_c and contributes (f_c / g) in all, with
    g = f_{i-1} f_{i+1}, and

        H(fixed with f) = s0 prod_{p in S} w_p(e_p) eps_p^{e_p} (f_c / g),

    where s0 is the twist sign at f = 1, w_p(e) the local weight at v_p
    with slot i set to e, a_p = v_p[i-1] + v_p[i+1] (p's exponent in g)
    and eps_p = prod over the other r in S of (p/r)^{a_r}. With
    G = prod_{p in S} p^{1 if a_p is odd, else 2}, (f / G) equals (f / g)
    on the f prime to S and vanishes on the others, so the slice is

        s0 prod_{p in S} (sum_e w_p(e) eps_p^e x^{e deg p}) T(x),

    truncated at xbound, with T[m] the sum of (f / G) over the monic f of
    degree m (the ``accel`` sweep). When some a_p is odd, (. / G) is a
    nontrivial character modulo rad G = prod_{p in S} p; the monic f of a
    degree m >= deg rad G run over every residue class modulo rad G
    equally often, so T[m] = 0, and T is swept only to deg rad G - 1.
    The brute sum of H over every f, and the sum over every smooth part
    f_s, are the oracles in the tests.
    """
    n1 = len(fixed)
    support = _prime_support(fq, fixed[:i] + (ONE,) + fixed[i + 1 :])
    odd = [p for p, vec in support.items() if (vec[i - 1] + vec[(i + 1) % n1]) % 2]
    cache = seed._weight_caches.setdefault(fq.q, {})
    euler = [_twist_sign(fq, support)] + [0] * xbound
    for p, vec in support.items():
        eps = 1
        for r in odd:
            if r != p:
                eps *= fq.residue_symbol(p, r)
        dp = degree(p)
        terms = [
            (e * dp, _weight(fq, cache, p, vec[:i] + (e,) + vec[i + 1 :], seed) * eps**e)
            for e in range(xbound // dp + 1)
        ]
        euler = _times(euler, terms)
    if not any(euler):
        return euler
    core = half = ONE
    for p in support:
        if p in odd:
            core = fq.mul(core, p)
        else:
            half = fq.mul(half, p)
    G = fq.mul(core, fq.mul(half, half))
    # a nontrivial character's complete sums vanish from deg rad G on
    swept = min(xbound, sum(map(degree, support)) - 1) if odd else xbound
    sums = accel.symbol_sums_by_degree(fq, G, swept).tolist()
    sums += [0] * (xbound - swept)
    return _times(euler, enumerate(sums))


def _times(series: list[int], terms) -> list[int]:
    # series * sum of c x^d over the (d, c) in terms, truncated at the
    # length of series
    n = len(series)
    out = [0] * n
    for d, c in terms:
        if c and d < n:
            for k, a in enumerate(series[: n - d]):
                out[d + k] += a * c
    return out
