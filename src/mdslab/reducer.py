"""Recurrence engine: reduction of cyclic coefficient indices to diagonals.

The coefficient c at index (a_0..a_n), indices cyclic mod n+1, satisfies one
linear recurrence per position i depending on the parity of s = a_{i-1} +
a_{i+1}. Repeatedly applying the recurrence at a position where a_i exceeds
the average of its neighbors rewrites every coefficient as a Z[q^{1/4}]-
combination of diagonal coefficients, which are free parameters supplied as
a seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .qlaurent import QL_ONE, QL_ZERO, QLaurent

IndexTuple = tuple[int, ...]


class SeedExhausted(Exception):
    """Reduction reached a diagonal beyond the seed's stored range."""


@dataclass
class DiagonalSeed:
    """Values assigned to the diagonal coefficients c_{a,...,a}.

    The memo table for reductions is keyed by seed identity, so distinct
    seeds never share cached values.
    """

    values: list[QLaurent]
    name: str = "seed"
    _memo: dict[tuple[int, IndexTuple], QLaurent] = field(default_factory=dict, repr=False)
    # global-weight caches per field size q, filled by mdslab.globalweights
    _weight_caches: dict[int, dict] = field(default_factory=dict, repr=False, compare=False)

    def diagonal(self, a: int) -> QLaurent:
        if a >= len(self.values):
            raise SeedExhausted(f"seed '{self.name}' has no diagonal value at a={a}")
        return self.values[a]

    @staticmethod
    def unit(length: int) -> "DiagonalSeed":
        """d_0 = 1, d_a = 0 for a > 0 (the seed defining P)."""
        return DiagonalSeed([QL_ONE] + [QL_ZERO] * length, name="unit")


def _max_violation(t: IndexTuple) -> tuple[int, int]:
    """Position maximizing 2*a_i - (a_{i-1} + a_{i+1}), ties to smallest i.

    Returns (i, 2*a_i - s). On a cycle, if every 2*a_i <= s then the tuple
    is constant, so a positive violation exists for non-diagonal tuples.
    """
    m = len(t)
    best_i, best_v = 0, 2 * t[0] - t[-1] - t[1 % m]
    for i in range(1, m):
        v = 2 * t[i] - t[i - 1] - t[(i + 1) % m]
        if v > best_v:
            best_i, best_v = i, v
    return best_i, best_v


def reduce_coeff(t: IndexTuple, seed: DiagonalSeed) -> QLaurent:
    """c_t as an exact element of Z[q^{1/4}], memoized per seed."""
    t = tuple(t)
    if any(a < 0 for a in t):
        return QL_ZERO
    n1 = len(t)
    key = (n1, t)
    memo = seed._memo
    cached = memo.get(key)
    if cached is not None:
        return cached
    # iterative worklist to avoid deep recursion on large index sums
    stack = [t]
    while stack:
        cur = stack[-1]
        if (n1, cur) in memo:
            stack.pop()
            continue
        if len(set(cur)) <= 1:
            memo[(n1, cur)] = seed.diagonal(cur[0])
            stack.pop()
            continue
        i, v = _max_violation(cur)
        if v <= 0:
            raise AssertionError(f"convexity violation at {cur}")
        s = cur[i - 1] + cur[(i + 1) % n1]
        ai = cur[i]

        def with_i(val: int) -> IndexTuple:
            return cur[:i] + (val,) + cur[i + 1 :]

        if s % 2:
            # c = q^{a_i - (s-1)/2} * c_{..., s-1-a_i, ...}
            tgt = s - 1 - ai
            if tgt < 0:
                memo[(n1, cur)] = QL_ZERO
                stack.pop()
                continue
            sub = memo.get((n1, with_i(tgt)))
            if sub is None:
                stack.append(with_i(tgt))
                continue
            memo[(n1, cur)] = sub.shift(4 * (ai - (s - 1) // 2))
            stack.pop()
        else:
            deps = [with_i(ai - 1), with_i(s - ai), with_i(s - ai - 1)]
            vals = []
            missing = False
            for d in deps:
                if any(x < 0 for x in d):
                    vals.append(QL_ZERO)
                    continue
                sub = memo.get((n1, d))
                if sub is None:
                    stack.append(d)
                    missing = True
                else:
                    vals.append(sub)
            if missing:
                continue
            c1, c2, c3 = vals
            out = c1.shift(4) + (c2 - c3.shift(4)).shift(4 * (ai - s // 2))
            memo[(n1, cur)] = out
            stack.pop()
    return memo[key]


def check_recurrences_everywhere(t: IndexTuple, seed: DiagonalSeed) -> bool:
    """Both recurrences hold at every position, not just the reduction one."""
    t = tuple(t)
    n1 = len(t)
    c = reduce_coeff(t, seed)
    for i in range(n1):
        s = t[i - 1] + t[(i + 1) % n1]
        ai = t[i]

        def with_i(val: int) -> IndexTuple:
            return t[:i] + (val,) + t[i + 1 :]

        def at(val: int) -> QLaurent:
            return reduce_coeff(with_i(val), seed) if val >= 0 else QL_ZERO

        if s % 2:
            rhs = at(s - 1 - ai).shift(4 * (ai - (s - 1) // 2))
        else:
            rhs = at(ai - 1).shift(4) + (at(s - ai) - at(s - ai - 1).shift(4)).shift(
                4 * (ai - s // 2)
            )
        if c != rhs:
            return False
    return True


def tuples_with_sum_at_most(n1: int, total: int):
    """All nonnegative (a_0..a_{n1-1}) with sum <= total, lexicographic."""
    def rec(prefix, remaining, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        for a in range(remaining + 1):
            yield from rec(prefix + [a], remaining - a, slots - 1)

    yield from rec([], total, n1)


def boundary_coeffs(n: int, degree: int, seed: DiagonalSeed) -> dict[IndexTuple, QLaurent]:
    """Table of all c_t with entry sum <= degree, deterministic order."""
    return {
        t: reduce_coeff(t, seed)
        for t in tuples_with_sum_at_most(n + 1, degree)
    }


def compute_P(n: int, max_degree: int) -> list[QLaurent]:
    """Coefficients p_a, a = 0..max_degree, of the universal diagonal ratio.

    Computed with the unit seed from the near-diagonal index (a,2a,...):
    for n odd p_a = q^{-a(n+1)} c_{a,2a,...,a,2a}; for n even
    p_a = q^{3a/2 - a(n+2)} c_{a,2a,...,2a,a}.
    """
    seed = DiagonalSeed.unit(2 * max_degree + 1)
    out = []
    for a in range(max_degree + 1):
        t = tuple(a if i % 2 == 0 else 2 * a for i in range(n + 1))
        c = reduce_coeff(t, seed)
        if n % 2:
            out.append(c.shift(-4 * a * (n + 1)))
        else:
            out.append(c.shift(6 * a - 4 * a * (n + 2)))
    return out


def local_weight(p_deg: int, t: IndexTuple, seed: DiagonalSeed) -> QLaurent:
    """H(p^{a_0},...,p^{a_n}) as a polynomial in |p| = q^{deg p}.

    By the local-to-global duality this is |p|^{sum a} c_t(|p|^{-1}); the
    result is returned as a QLaurent in the variable |p| and must be an
    honest polynomial (no negative or fractional exponents).
    """
    if p_deg < 1:
        raise ValueError("prime degree must be positive")
    c = reduce_coeff(t, seed)
    h = c.subst_q_power(-1).shift(4 * sum(t))
    if not h.terms:
        return h
    if h.min_quarters() < 0 or any(e % 4 for e in h.terms):
        raise ValueError(f"local-to-global violation at {t}: H = {h!r}")
    return h


def local_weight_value(p_deg: int, q0: int, t: IndexTuple, seed: DiagonalSeed) -> int:
    """Integer value of the local weight at a concrete prime of degree p_deg."""
    return local_weight(p_deg, t, seed).eval_int(q0**p_deg)


def check_dominance(t: IndexTuple, seed: DiagonalSeed) -> dict:
    """Every monomial of c_t has q-degree strictly above (sum a + 1)/2.

    The zero tuple and the unit tuples are the stated exceptions. Boundary
    hits (degree exactly at the bound) are flagged, not silently passed.
    """
    t = tuple(t)
    total = sum(t)
    is_exception = total == 0 or (total == 1 and sorted(t)[-2] == 0)
    c = reduce_coeff(t, seed)
    report = {"check": "dominance", "tuple": t, "status": "pass"}
    if is_exception:
        report["status"] = "pass"
        report["exception"] = True
        return report
    if not c.terms:
        return report
    lo = c.min_quarters()  # quarter units; bound is (total+1)/2 <-> 2*(total+1)
    bound_quarters = 2 * (total + 1)
    if lo < bound_quarters:
        report["status"] = "fail"
        report["witness"] = f"monomial q^{lo}/4 at tuple {t}"
    elif lo == bound_quarters:
        report["status"] = "boundary"
        report["witness"] = f"monomial exactly at degree (sum+1)/2 for {t}"
    return report


def check_lambda_fe(fixed: tuple[int, ...], i: int, seed: DiagonalSeed) -> dict:
    """Functional equation of the one-variable slice at position i.

    ``fixed`` is the full index tuple with position i ignored. Odd neighbor
    sum s: the slice is a polynomial of degree s-1 with the exact reversal
    c_{a} = q^{a-(s-1)/2} c_{s-1-a}. Even s: the even recurrence pins the
    slice to numerator degree s over 1 - q x; verified for a up to 2s.
    """
    n1 = len(fixed)
    s = fixed[(i - 1) % n1] + fixed[(i + 1) % n1]

    def at(a: int) -> QLaurent:
        t = list(fixed)
        t[i] = a
        return reduce_coeff(tuple(t), seed)

    report = {
        "check": "lambda_fe",
        "fixed": tuple(fixed),
        "i": i,
        "s": s,
        "status": "pass",
    }
    if s % 2:
        # polynomial of degree s-1, coefficient reversal
        for a in range(s, 2 * s + 2):
            if at(a):
                report["status"] = "fail"
                report["witness"] = f"nonzero coefficient beyond degree s-1 at a={a}"
                return report
        for a in range(s):
            lhs = at(a)
            rhs = at(s - 1 - a).shift(4 * (a - (s - 1) // 2))
            if lhs != rhs:
                report["status"] = "fail"
                report["witness"] = f"reversal fails at a={a}"
                return report
    else:
        for a in range(s // 2 + 1, 2 * s + 1):
            lhs = at(a)
            c1 = at(a - 1)
            c2 = at(s - a) if s - a >= 0 else QL_ZERO
            c3 = at(s - a - 1) if s - a - 1 >= 0 else QL_ZERO
            rhs = c1.shift(4) + (c2 - c3.shift(4)).shift(4 * (a - s // 2))
            if lhs != rhs:
                report["status"] = "fail"
                report["witness"] = f"even recurrence fails at a={a}"
                return report
    return report


def check_diagonal_determination(
    n: int, seed1: DiagonalSeed, seed2: DiagonalSeed, bound: int
) -> dict:
    """The ratio of two generated series depends only on x_0 x_1 ... x_n."""
    from .series import MultiSeries

    nv = n + 1

    def series_of(seed: DiagonalSeed) -> MultiSeries:
        terms = {
            t: reduce_coeff(t, seed)
            for t in tuples_with_sum_at_most(nv, bound)
        }
        return MultiSeries(nv, bound, terms)

    z1 = series_of(seed1)
    z2 = series_of(seed2)
    ratio = z1.mul(z2.inverse())
    report = {"check": "diagonal_determination", "n": n, "D": bound, "status": "pass"}
    for e, c in sorted(ratio.terms.items()):
        if len(set(e)) > 1 and c:
            report["status"] = "fail"
            report["witness"] = f"off-diagonal ratio term at {e}"
            return report
    return report
