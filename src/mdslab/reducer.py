"""Recurrence engine: reduction of cyclic coefficient indices to diagonals.

The coefficient c at index (a_0..a_n), indices cyclic mod n+1, satisfies one
linear recurrence per position i depending on the parity of s = a_{i-1} +
a_{i+1}. Repeatedly applying the recurrence at the first position where
a_i exceeds the average of its neighbors rewrites every coefficient as a
Z[q^{1/4}]-combination of diagonal coefficients, which are free parameters
supplied as a seed. The engine is a plain memoised recursion: every
dependency of a tuple has a smaller index sum, so the recursion is no deeper
than the index sum of the tuple asked for.

The walk is written once (``_reduce``) and takes its value arithmetic as
a small ring: the value of a diagonal, the odd rule and the even rule.
``reduce_coeff`` walks a seed with ``QLaurent`` values, since its memo
outlives the call and answers queries of any size. ``compute_P`` knows
all its roots before the walk, so it walks its unit seed with the packed
pairs (low, N) of :mod:`mdslab.qlaurent`, where a sum is an addition of
two ints and q^e c adds e to low, and decodes only its roots. The digit
width comes from a bound on the unit seed: ||c_t||_1 <= T(sum t), with
T(S) = 0 for S < 0, T(0) = 1 and T(S) = T(S-1) + T(S-2) + T(S-3), so
T(1) = 1 and T(2) = 2. The even rule's three dependencies lower the
index sum by 1 (a_i - 1), by 2 a_i - s >= 2 and by 2 a_i - s + 1 >= 3
(s even, so 2 a_i - s is even and positive); the odd rule's one
dependency lowers it by 2 a_i - s + 1 >= 2 (s odd); a power of q keeps
the norm; a leaf is 0 or 1, and a negative index 0. T is nondecreasing,
so by induction on the sum the norm of c_t is at most T(S-1) + T(S-2) +
T(S-3) = T(S). Digits of bits(T(S)) + 2 bits, S the largest root sum,
decode every memo entry: 55 bits at n = 6, D = 6, where P's largest
coefficient has 12.

Any position with 2*a_i > a_{i-1} + a_{i+1} would do. The series satisfies
the recurrence of every position at once (one functional equation each),
so every choice of position reaches the same value. The first one ends the
scan soonest, and on the unit seed of ``compute_P`` it visits about a
quarter of the tuples that the largest violation does. The checks do not
assume that consistency: ``check_lambda_fe`` tests the recurrences at every
position, and the tests compare against a reduction that always picks the
largest violation.

A parity invariant says which coefficients must vanish before any
reduction. Let tau(t) = sum_i a_{i-1} a_i mod 2, summed round the cycle.
A recurrence at position i changes only a_i, so tau moves by
(delta a_i) * s with s = a_{i-1} + a_{i+1}. For odd s the odd recurrence
moves a_i to s-1-a_i, by an even amount; for even s the product is even
whatever the move. So every dependency of t has the tau of t, every chain
from t ends on a diagonal (a,...,a) with (n+1) a = tau(t) mod 2 (or on a
negative index, which is zero), and c_t = 0 when the seed has no nonzero
d_a of that parity. For n odd that is every t with tau(t) = 1, whatever
the seed; for n even every t with tau(t) = 1 under a seed whose odd
diagonals vanish, as the unit seed's and the pipeline seed's do.
``reduce_coeff`` stores such a root as zero without reducing it. Since
tau is constant along every chain, a root that the rule does not cover
never reaches a tuple that it does, and the reduction itself is unchanged.

``check_reversal`` is the one test of a one-variable functional equation;
the slice checks here, in ``globalweights`` and in ``lfunctions`` only
build its coefficients. It multiplies the identity through by a power of
q, so it needs no negative power: the slices of H compare plain integers.
Every check returns ``{"status", "witness"}``, the witness only when it
does not pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .qlaurent import QL_ONE, QL_ZERO, QLaurent

IndexTuple = tuple[int, ...]


class SeedExhausted(Exception):
    """Reduction reached a diagonal beyond the seed's stored range."""


@dataclass(eq=False)
class DiagonalSeed:
    """Values assigned to the diagonal coefficients c_{a,...,a}.

    Each seed owns its memos, so distinct seeds never share cached values,
    and each memo is freed with its seed: the reduction memo ``_memo``,
    keyed by index tuple (``QLaurent`` values, or packed pairs on the unit
    seed that ``compute_P`` walks); ``_weights``, the local weights at a
    concrete q; and ``_slice_factors``, the per-prime Euler factors of the
    H slices in ``globalweights``. ``_zero_tau`` records, at construction,
    which tau the parities of the a with a nonzero d_a leave zero, for the
    parity rule of ``reduce_coeff``. A seed equals only itself and is hashable,
    so what its memos hold never enters a comparison.
    """

    values: list[QLaurent]
    name: str = "seed"
    _memo: dict[IndexTuple, QLaurent] = field(default_factory=dict, repr=False)
    # local_weight_value's memo, keyed by (p_deg, q0, t)
    _weights: dict[tuple, int] = field(default_factory=dict, repr=False)
    # globalweights._slice_coeffs's per-prime Euler factors, as
    # [(e deg p, w'(e) eps_p^e)], keyed by (deg p, q, v_p, i, top, eps_p)
    _slice_factors: dict[tuple, list] = field(default_factory=dict, repr=False)
    _zero_tau: tuple[frozenset[int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        # _zero_tau[m % 2]: the tau of the cycles of length m whose chains
        # reach no nonzero d_a, the diagonal (a,...,a) having tau = m a mod 2
        parities = {a % 2 for a, d in enumerate(self.values) if d}
        self._zero_tau = tuple(frozenset({0, 1} - {m * a % 2 for a in parities}) for m in (0, 1))

    def diagonal(self, a: int) -> QLaurent:
        if a >= len(self.values):
            raise SeedExhausted(f"seed '{self.name}' has no diagonal value at a={a}")
        return self.values[a]

    @staticmethod
    def unit(length: int) -> "DiagonalSeed":
        """d_0 = 1, d_a = 0 for a > 0 (the seed defining P)."""
        return DiagonalSeed([QL_ONE] + [QL_ZERO] * length, name="unit")


def reduce_coeff(t: IndexTuple, seed: DiagonalSeed) -> QLaurent:
    """c_t as an exact element of Z[q^{1/4}], memoized on the seed.

    Reduces at the first position i with 2*a_i > a_{i-1} + a_{i+1}. Every
    dependency differs from the node only in a smaller a_i, so the index sum
    falls along each chain of dependencies, which ends on diagonals, and the
    recursion of ``_reduce`` is no deeper than the index sum. Measured below
    its first call, it nests 42 calls deep in ``compute_P(6, 6)``, 72 in
    ``compute_P(10, 6)`` and 113 in ``compute_P(2, 100)``. Memo values are
    ``QLaurent`` with no zero coefficient, and a zero the recurrence yields
    is the shared ``QL_ZERO``.

    A root that the memo does not hold and that the parity rule of the
    module docstring covers is stored as zero without a reduction: no
    diagonal a with (n+1) a = tau(t) mod 2 carries a nonzero d_a. The rule
    is read only when the seed stores every diagonal that a chain from t
    can reach ((n+1) a <= sum(t)), so a seed too short for t still raises
    ``SeedExhausted``.
    """
    t = tuple(t)
    c = seed._memo.get(t)
    if c is not None:
        return c
    return _reduce_root(t, seed, _Ring(QL_ZERO, seed.diagonal, _odd_rule, _even_rule))


class _Ring:
    """The value arithmetic of the walk: ``zero``; ``leaf(a)``, the value
    of the diagonal d_a; ``odd(c, e)``, q^e c; and ``even(c1, c2, c3, e)``,
    q c1 + q^e (c2 - q c3). The exponents e are whole, since s - 1 in the
    odd rule and s in the even rule are even."""

    __slots__ = ("zero", "leaf", "odd", "even")

    def __init__(self, zero, leaf, odd, even):
        self.zero, self.leaf, self.odd, self.even = zero, leaf, odd, even


def _reduce_root(t: IndexTuple, seed: DiagonalSeed, ring: _Ring):
    # c_t in the ring, as zero by the parity rule or reduced; the callers
    # have read the memo: reduce_coeff before the call, and compute_P's
    # roots have strictly increasing index sums, so none is in the memo
    memo = seed._memo
    if min(t) < 0:  # never a memo key
        return ring.zero
    m = len(t)
    tau = (t[-1] * t[0] + sum(map(mul, t, t[1:]))) % 2
    if tau in seed._zero_tau[m % 2] and sum(t) < m * len(seed.values):
        c = memo[t] = ring.zero
        return c
    return _reduce(t, memo, [(i, i - 1, (i + 1) % m) for i in range(m)], ring)


def _reduce(cur: IndexTuple, memo: dict, sides: list, ring: _Ring):
    # c_cur from memo, or reduced and stored there; sides lists (i, i-1, i+1)
    c = memo.get(cur)
    if c is not None:
        return c
    for i, left, right in sides:
        s = cur[left] + cur[right]
        if 2 * cur[i] > s:
            break
    else:
        # 2*a_i <= s everywhere sums to equality on a cycle: cur is constant
        c = memo[cur] = ring.leaf(cur[0])
        return c
    ai = cur[i]
    dep = list(cur)  # a dependency differs from cur at position i only
    zero = ring.zero  # a dependency below zero is zero
    if s % 2:
        # c = q^{a_i-(s-1)/2} c_{s-1-a_i}
        c = zero
        if ai < s:
            dep[i] = s - 1 - ai
            c = _reduce(tuple(dep), memo, sides, ring)
        c = memo[cur] = ring.odd(c, ai - (s - 1) // 2)
        return c
    # c = q c_{a_i-1} + q^{a_i-s/2} (c_{s-a_i} - q c_{s-a_i-1}), a_i >= 1
    dep[i] = ai - 1
    c1 = _reduce(tuple(dep), memo, sides, ring)
    c2 = c3 = zero
    if ai <= s:
        dep[i] = s - ai
        c2 = _reduce(tuple(dep), memo, sides, ring)
        if ai < s:
            dep[i] = s - ai - 1
            c3 = _reduce(tuple(dep), memo, sides, ring)
    c = memo[cur] = ring.even(c1, c2, c3, ai - s // 2)
    return c


def _odd_rule(c: QLaurent, e: int) -> QLaurent:
    """q^e c, built without QLaurent's filter pass."""
    return c.shift(4 * e) if c.terms else QL_ZERO


def _even_rule(c1: QLaurent, c2: QLaurent, c3: QLaurent, e: int) -> QLaurent:
    """q c1 + q^e (c2 - q c3); a coefficient is dropped only where two
    terms meet and cancel."""
    if not c2.terms and not c3.terms:
        return c1.shift(4) if c1.terms else QL_ZERO
    out = {k + 4: v for k, v in c1.terms.items()}
    for c, shift, sign in ((c2, 4 * e, 1), (c3, 4 * e + 4, -1)):
        for k, v in c.terms.items():
            k += shift
            v *= sign
            if k in out:
                v += out[k]
                if v:
                    out[k] = v
                else:
                    del out[k]
            else:
                out[k] = v
    return QLaurent.from_nonzero(out) if out else QL_ZERO


_PACKED_ZERO = (0, 0)


def _packed_ring(seed: DiagonalSeed, bits: int) -> _Ring:
    """The ring of packed pairs (low, N) in whole powers of q, digits of
    ``bits`` bits (see :mod:`mdslab.qlaurent`), on the unit ``seed``; zero
    is (0, 0), and no nonzero value has N = 0. A leaf is 1 = (0, 1) or 0,
    the unit seed's only diagonal values, and past the seed's length
    ``seed.diagonal`` raises ``SeedExhausted``."""

    def odd(c, e):
        return (c[0] + e, c[1]) if c[1] else _PACKED_ZERO

    def even(c1, c2, c3, e):
        l1, n1 = c1
        l2, n2 = c2
        l3, n3 = c3
        # first (l2, n2) <- c2 - q c3, shifted by q^e afterwards
        if n3:
            l3 += 1
            if not n2:
                l2, n2 = l3, -n3
            elif l2 <= l3:
                n2 -= n3 << bits * (l3 - l2)
            else:
                l2, n2 = l3, (n2 << bits * (l2 - l3)) - n3
        elif not n2:
            return (l1 + 1, n1) if n1 else _PACKED_ZERO
        l2 += e
        if not n1:
            return (l2, n2) if n2 else _PACKED_ZERO
        l1 += 1
        if l1 <= l2:
            n = n1 + (n2 << bits * (l2 - l1))
        else:
            n, l1 = (n1 << bits * (l1 - l2)) + n2, l2
        return (l1, n) if n else _PACKED_ZERO

    return _Ring(_PACKED_ZERO, lambda a: (0, 1) if seed.diagonal(a) else _PACKED_ZERO, odd, even)


def _unit_bits(total: int) -> int:
    """Digit width B that decodes every c_t of index sum <= ``total`` on
    the unit seed: T(total).bit_length() + 2, T the bound of compute_P."""
    t = (0, 0, 1)  # T(-2), T(-1), T(0)
    for _ in range(total):
        t = (t[1], t[2], sum(t))
    return t[2].bit_length() + 2


def tuples_with_sum_at_most(n1: int, total: int):
    """All nonnegative (a_0..a_{n1-1}) with sum <= total, lexicographic."""
    def rec(prefix, remaining, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        for a in range(remaining + 1):
            yield from rec(prefix + [a], remaining - a, slots - 1)

    yield from rec([], total, n1)


def compute_P(n: int, max_degree: int) -> list[QLaurent]:
    """Coefficients p_a, a = 0..max_degree, of the universal diagonal ratio.

    Computed with the unit seed from the near-diagonal index (a,2a,...):
    for n odd p_a = q^{-a(n+1)} c_{a,2a,...,a,2a}; for n even
    p_a = q^{3a/2 - a(n+2)} c_{a,2a,...,2a,a}.

    The unit seed is walked with the packed ring of the module docstring,
    its digit width fixed by the largest root sum before the walk; its
    memo holds packed pairs, and only the roots are decoded.

    The unit seed's only nonzero diagonal is d_0, so by the parity rule of
    the module docstring every index with tau = 1 is zero. For n even tau
    of the index is a mod 2 (n pairs (a, 2a) and the one pair (a, a)), so
    each odd p_a is zero without a reduction. For n even the coefficient
    is read at the rotation (2a, a, 2a, ..., a, a) of the index, which
    puts the odd cycle's one adjacent pair (a, a) last in the first-
    violation scan. With the rule, the memo of ``compute_P(6, 6)`` holds
    5,480 entries against 8,856 (three of them the odd roots, stored as
    zero), that of ``compute_P(12, 6)`` 363,506 against 621,609. The
    rotation keeps the value:
    position i of the index is position i-1 of the rotation, and the
    recurrences hold at every position. For n odd the index alternates
    all the way round, so there is no seam to move, and it is read as it
    stands.
    """
    seed = DiagonalSeed.unit(2 * max_degree + 1)
    roots = []
    for a in range(max_degree + 1):
        t = tuple(a if i % 2 == 0 else 2 * a for i in range(n + 1))
        roots.append(t[1:] + t[:1] if n % 2 == 0 else t)
    bits = _unit_bits(sum(roots[-1]))
    ring = _packed_ring(seed, bits)
    out = []
    for a, t in enumerate(roots):
        c = QLaurent.unpack(*_reduce_root(t, seed, ring), bits)
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
    if not h.is_integer_poly():
        raise ValueError(f"local-to-global violation at {t}: H = {h!r}")
    return h


def local_weight_value(p_deg: int, q0: int, t: IndexTuple, seed: DiagonalSeed) -> int:
    """Integer value of the local weight at a concrete prime of degree p_deg,
    memoised on the seed."""
    key = (p_deg, q0, t)
    w = seed._weights.get(key)
    if w is None:
        w = seed._weights[key] = local_weight(p_deg, t, seed).eval_int(q0**p_deg)
    return w


def check_dominance(t: IndexTuple, seed: DiagonalSeed) -> dict:
    """Every monomial of c_t has q-degree strictly above (sum a + 1)/2.

    The zero tuple and the unit tuples are the stated exceptions. Boundary
    hits (degree exactly at the bound) are flagged, not silently passed.
    """
    t = tuple(t)
    total = sum(t)
    c = reduce_coeff(t, seed)
    if total == 0 or (total == 1 and sorted(t)[-2] == 0) or not c.terms:
        return {"status": "pass"}
    lo = c.min_quarters()  # quarter units; bound is (total+1)/2 <-> 2*(total+1)
    bound_quarters = 2 * (total + 1)
    if lo < bound_quarters:
        return {"status": "fail", "witness": f"monomial q^{lo}/4 at tuple {t}"}
    if lo == bound_quarters:
        return {"status": "boundary", "witness": f"monomial exactly at degree (sum+1)/2 for {t}"}
    return {"status": "pass"}


def check_reversal(coeffs: list, m: int, qpow) -> dict:
    """The one-variable functional equation, shared by every slice check.

    The coefficients vanish above the even degree m, and c_k =
    q^{k-m/2} c_{m-k} for k = 0..m, compared as q^{m/2} c_k = q^k c_{m-k}
    (times the unit q^{m/2}), so ``qpow(j)`` is only asked for j >= 0.
    ``qpow(j)`` is q^j in the coefficients' ring (``int`` or
    ``QLaurent``). The identities at k and m - k are one and the same, and
    the one at m/2 always holds, so only k < m/2 is compared: the first
    failing k is the same as over 0..m.
    """
    for k in range(m + 1, len(coeffs)):
        if coeffs[k]:
            return {"status": "fail", "witness": f"nonzero coefficient at degree {k} > {m}"}
    unit = qpow(m // 2)
    for k in range(m // 2):
        if unit * coeffs[k] != qpow(k) * coeffs[m - k]:
            return {"status": "fail", "witness": f"reversal fails at degree {k}"}
    return {"status": "pass"}


def check_lambda_fe(fixed: tuple[int, ...], i: int, seed: DiagonalSeed) -> dict:
    """Functional equation of the one-variable slice at position i.

    ``fixed`` is the full index tuple with position i ignored, and s is the
    sum of its neighbors. Odd s: the slice is a polynomial of degree s-1
    with the reversal of ``check_reversal``; read for a up to 2s+1. Even
    s: the even recurrence at every a > s/2 says the same of the cleared
    numerator (1 - q x) L(x) with degree s; read for a up to 2s.
    """
    n1 = len(fixed)
    s = fixed[(i - 1) % n1] + fixed[(i + 1) % n1]
    t = list(fixed)
    coeffs = []
    for a in range(2 * s + 1 + s % 2):
        t[i] = a
        coeffs.append(reduce_coeff(tuple(t), seed))
    if s % 2 == 0:
        coeffs = [c - p.shift(4) for c, p in zip(coeffs, [QL_ZERO] + coeffs)]
    return check_reversal(coeffs, s - s % 2, lambda j: QLaurent.q_power(4 * j))

