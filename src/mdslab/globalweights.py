"""Global weights glued from local ones by twisted multiplicativity.

H on an arbitrary monic tuple is the product of the prime-support local
weights times a correction by cross residue symbols between distinct
primes. Everything here is exact integer arithmetic at the ambient q.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .fqpoly import Fq, ONE, degree, is_monic
from .reducer import DiagonalSeed, local_weight_value, reduce_coeff

BUDGET = 10**8


def _prime_support(fq: Fq, polys: tuple) -> dict:
    n1 = len(polys)
    support: dict[tuple, list[int]] = {}
    for i, f in enumerate(polys):
        if not is_monic(f):
            raise ValueError("weights are defined on monic tuples")
        if degree(f) == 0:
            continue
        for p, mult in fq.factor(f)[0]:
            support.setdefault(p, [0] * n1)[i] = mult
    return support


def H_global(fq: Fq, polys: tuple, seed: DiagonalSeed) -> int:
    """Weight of a monic tuple: local weights glued with the cyclic twist.

    The twist between two primes p, r with valuation vectors u, v is
    (p/r) raised to sum_i u_i v_{i+1} + v_i u_{i+1} (indices cyclic).
    """
    n1 = len(polys)
    support = _prime_support(fq, polys)
    cache = seed._weight_caches.setdefault(fq.q, {})
    value = 1
    primes = sorted(support)
    vecs = []
    for p in primes:
        t = tuple(support[p])
        w = cache.get((len(p), t))
        if w is None:
            w = local_weight_value(len(p) - 1, fq.q, t, seed)
            cache[(len(p), t)] = w
        if w == 0:
            return 0
        value *= w
        vecs.append(t)
    for a in range(len(primes)):
        u = vecs[a]
        for b in range(a + 1, len(primes)):
            if fq.residue_symbol(primes[a], primes[b]) == 1:
                continue
            v = vecs[b]
            parity = 0
            for i in range(n1):
                j = i + 1 - n1 * (i + 1 == n1)
                parity ^= (u[i] * v[j] ^ v[i] * u[j]) & 1
            if parity:
                value = -value
    return value


def H_global_pairwise(fq: Fq, polys: tuple, seed: DiagonalSeed, order=None) -> int:
    """Independent route: peel one prime block at a time with the literal
    two-block gluing rule H(FG) = H(F) H(G) prod (F_i/G_{i+1})(G_i/F_{i+1}).

    ``order`` fixes the peeling order of the prime support; the result must
    not depend on it.
    """
    n1 = len(polys)
    support = _prime_support(fq, polys)
    primes = sorted(support) if order is None else list(order)
    if not primes:
        return 1
    p = primes[0]
    block = tuple(fq.pow(p, support[p][i]) for i in range(n1))
    rest = tuple(
        fq.divmod(f, fq.pow(p, support[p][i]))[0] for i, f in enumerate(polys)
    )
    twist = 1
    for i in range(n1):
        j = (i + 1) % n1
        twist *= fq.residue_symbol(block[i], rest[j])
        twist *= fq.residue_symbol(rest[i], block[j])
    if twist == 0:
        return 0
    w = local_weight_value(len(p) - 1, fq.q, tuple(support[p]), seed)
    return w * twist * H_global_pairwise(fq, rest, seed, order=primes[1:])


def _check_budget(q0: int, total: int, n1: int) -> None:
    cost = n1 * q0**total
    if cost > BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: {n1} * {q0}^{total} = {cost} > {BUDGET}"
        )


def _monic_tuples(fq: Fq, degrees):
    pools = [fq.monic_enum(a) for a in degrees]
    return itertools.product(*pools)


def global_coeff_sum(fq: Fq, t: tuple[int, ...], seed: DiagonalSeed) -> int:
    """Sum of H over all monic tuples of the given degrees.

    By the local-to-global principle this equals c_t evaluated at q.
    """
    t = tuple(t)
    _check_budget(fq.q, sum(t), len(t))
    return sum(H_global(fq, fs, seed) for fs in _monic_tuples(fq, t))


def naive_coeff(fq: Fq, t: tuple[int, ...]) -> int:
    """Uncorrected coefficient: plain cyclic product of residue symbols.

    Differs from the axiomatic coefficient as soon as square factors
    contribute; kept as a reference point, not an identity.
    """
    t = tuple(t)
    n1 = len(t)
    _check_budget(fq.q, sum(t), n1)
    total = 0
    for fs in _monic_tuples(fq, t):
        prod = 1
        for i in range(n1):
            prod *= fq.residue_symbol(fs[i], fs[(i + 1) % n1])
            if prod == 0:
                break
        total += prod
    return total


def l_series_H(
    fq: Fq, fixed: tuple, i: int, xbound: int, seed: DiagonalSeed
) -> dict:
    """Single-variable slice sum_{f_i} H x^{deg f_i} with its exact
    functional equation.

    s = deg f_{i-1} + deg f_{i+1} (cyclic). Odd s: polynomial of degree
    s - 1 with reversal c_k = q^{k-(s-1)/2} c_{s-1-k}. Even s: the cleared
    numerator N(x) = (1 - qx) L(x) has degree at most s and satisfies
    N_k = q^{k-s/2} N_{s-k}.
    """
    n1 = len(fixed)
    s = degree(fixed[(i - 1) % n1]) + degree(fixed[(i + 1) % n1])
    coeffs = []
    for d in range(xbound + 1):
        acc = 0
        for f in fq.monic_enum(d):
            fs = fixed[:i] + (f,) + fixed[i + 1 :]
            acc += H_global(fq, fs, seed)
        coeffs.append(acc)
    q = Fraction(fq.q)
    report = {
        "check": "l_series_fe",
        "q": fq.q,
        "fixed": [list(f) for f in fixed],
        "i": i,
        "s": s,
        "coeffs": coeffs,
        "status": "pass",
    }

    def fail(msg: str) -> dict:
        report["status"] = "fail"
        report["witness"] = msg
        return report

    if s % 2:
        if xbound < s - 1:
            raise ValueError("xbound too small to see the functional equation")
        for k in range(s, xbound + 1):
            if coeffs[k]:
                return fail(f"nonzero coefficient at degree {k} > s-1")
        for k in range(s):
            if Fraction(coeffs[k]) != q ** (k - (s - 1) // 2) * coeffs[s - 1 - k]:
                return fail(f"odd reversal fails at degree {k}")
    else:
        if xbound < s + 1:
            raise ValueError("xbound too small to see the functional equation")
        ncoeffs = [
            Fraction(coeffs[k]) - q * (coeffs[k - 1] if k else 0)
            for k in range(xbound + 1)
        ]
        for k in range(s + 1, xbound + 1):
            if ncoeffs[k]:
                return fail(f"cleared numerator has degree {k} > s")
        for k in range(s + 1):
            if ncoeffs[k] != q ** (k - s // 2) * ncoeffs[s - k]:
                return fail(f"even reversal fails at degree {k}")
    return report
