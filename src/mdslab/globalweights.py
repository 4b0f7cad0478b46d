"""Global weights glued from local ones by twisted multiplicativity.

H on an arbitrary monic tuple is the product of the prime-support local
weights times a correction by cross residue symbols between distinct
primes. Everything here is exact integer arithmetic at the ambient q, the
reversal test included.

The one-variable slices of ``l_series_H`` do not sum H over every f
(``_slice_coeffs``). The exponent in slot i of a prime p of the fixed
entries enters H only through p's local weight and p's twists with the
primes of slots i - 1 and i + 1, so the part of f smooth over those primes
contributes an Euler product, one factor per prime, and the part coprime to
them one quadratic character chi, that of the product of the primes of odd
exponent in slots i - 1 and i + 1. That product is squarefree, so chi is
primitive, and the ``accel`` sweep is handed just its primes: every other
prime p of the fixed entries has chi(p) known, so "f prime to p" is one
more Euler factor. A nontrivial chi has complete sums that vanish from the
degree of its modulus on, so the sweep stops there; with no odd prime chi
is principal, and its sums q^d need no sweep. The modulus divides the
product of the other slots, so ``slice_batch``, which prices q to their
degree, also bounds the sweep. A prime's Euler factor depends on its slice
only through deg p, q, its valuation vector, the slot, the number of terms
and its sign eps_p, so it is built once per such key and kept on the seed
(``DiagonalSeed._slice_factors``); the character sweep stays per slice.
``l_series_H`` clears the pole of a slice and runs ``check_reversal`` on
it, returning ``{"status", "witness"}``.
The local-to-global sums of ``global_coeff_sums`` go through the same
slices: the sum over the slot of largest degree is one slice coefficient,
and every t that shares that slot and the other slots' degrees reads its
coefficient from one slice.
The group G of ``Fq.monic_orbits`` (f -> a^(-deg f) f(a t + b), a a
nonzero square, on every entry at once; its docstring argues why) keeps
every residue symbol, so it fixes H, and it fixes a slice, whose sum over
f_i it only permutes. The tuples of other entries are therefore summed
one slice per orbit of G times the orbit size; the fe suite's slices and
the residue H route read the same enumerator.
The brute sums, of H over every f and over every monic tuple, and the
enumeration of every smooth part and of every tuple stay in the tests
as the oracles.
"""

from __future__ import annotations

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
    value = 1
    for p, vec in support.items():
        w = local_weight_value(degree(p), fq.q, vec, seed)
        if w == 0:
            return 0
        value *= w
    return value * _twist_sign(fq, support)


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


def enforce_budget(n1: int, count: int) -> None:
    """Refuse an enumeration of count tuples of n1 entries, before it
    starts, when n1 * count exceeds ``BUDGET``."""
    if n1 * count > BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: {n1} * {count} = {n1 * count} > {BUDGET}"
        )


def global_coeff_sum(fq: Fq, t: tuple[int, ...], seed: DiagonalSeed) -> int:
    """Sum of H over all monic tuples of the given degrees: the one-t case
    of ``global_coeff_sums``."""
    return global_coeff_sums(fq, [t], seed)[0]


def slice_batch(fq: Fq, ts) -> tuple[list, dict]:
    """Group the t of ``global_coeff_sums`` by the slices that answer them,
    and price the batch.

    Returns one ((i, the other slots' degrees), t_i) per t, i the first
    slot of largest degree, and each such key with its largest t_i. The
    batch, the tuples of other entries over every key, is refused through
    ``enforce_budget`` before any slice is summed.
    """
    keys = []
    n1 = 0
    for t in map(tuple, ts):
        n1 = len(t)
        i = t.index(max(t))
        keys.append(((i, t[:i] + t[i + 1 :]), t[i]))
    # {key: its largest t_i}: in sorted order a key's last pair holds it
    tops = dict(sorted(keys))
    enforce_budget(n1, sum(fq.q ** sum(rest) for _, rest in tops))
    return keys, tops


def global_coeff_sums(fq: Fq, ts, seed: DiagonalSeed) -> list[int]:
    """For each t in ts, the sum of H over all monic tuples of degrees t.

    By the local-to-global principle this equals c_t evaluated at q. The
    sum over the first slot i of largest degree is coefficient t_i of the
    one-variable slice with the other entries fixed (``_slice_coeffs``), so
    only the other slots are enumerated, and only up to the group G of
    ``Fq.monic_orbits``: applied to the other entries it fixes the slice,
    whose f_i it only permutes, so each orbit adds its representative's
    slice times the orbit size. The t that share i and
    the degrees of the other slots read one slice per orbit of other
    entries, summed to the largest such t_i: a slice to a lower degree is
    a prefix of it (the Euler product and the sweep are both truncated,
    and the sweep's cap does not depend on xbound). ``slice_batch`` groups
    the t and prices the whole batch, every tuple of other entries, against
    ``BUDGET`` before any slice is summed.
    """
    keys, tops = slice_batch(fq, ts)
    sums = {}
    for (i, rest), top in tops.items():
        total = [0] * (top + 1)
        for others, size in fq.monic_orbits(rest):
            fixed = others[:i] + (ONE,) + others[i:]
            coeffs = _slice_coeffs(fq, fixed, i, top, seed)
            total = [a + size * b for a, b in zip(total, coeffs)]
        sums[i, rest] = total
    return [sums[key][x] for key, x in keys]


def l_series_H(
    fq: Fq, fixed: tuple, i: int, xbound: int, seed: DiagonalSeed
) -> dict:
    """Functional equation of the single-variable slice
    L(x) = sum_{f_i} H x^{deg f_i}, read to degree xbound.

    s = deg f_{i-1} + deg f_{i+1} (cyclic). Odd s: L is a polynomial of
    degree s - 1 with the reversal of ``check_reversal``. Even s: the
    cleared numerator (1 - qx) L(x) has degree s and the same reversal.
    L is fixed when every fixed entry is moved by one element of the
    group G of ``Fq.monic_orbits``, which fixes H and only permutes the
    f_i, so a check over the fixed tuples checks one per orbit of G.
    """
    n1 = len(fixed)
    s = degree(fixed[(i - 1) % n1]) + degree(fixed[(i + 1) % n1])
    if xbound < (s - 1 if s % 2 else s + 1):
        raise ValueError("xbound too small to see the functional equation")
    coeffs = _slice_coeffs(fq, fixed, i, xbound, seed)
    if s % 2 == 0:
        coeffs = [c - fq.q * p for c, p in zip(coeffs, [0] + coeffs)]
    return check_reversal(coeffs, s - s % 2, lambda j: fq.q**j)


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
    and eps_p = prod over the other r in S of (p/r)^{a_r}. Let odd be the
    p in S with a_p odd and chi = (. / prod odd), which equals (. / g) on
    the f prime to S. chi is primitive, and for p not in odd chi(p) =
    eps_p, so the sum of chi over the f prime to S is that over the f
    prime to odd times prod_{p not in odd} (1 - eps_p x^{deg p}). Folded
    into p's factor, w_p(e) becomes w_p(e) - w_p(e - 1), and the slice is

        s0 prod_{p in S} (sum_e w'_p(e) eps_p^e x^{e deg p}) T(x),

    truncated at xbound, with w'_p that difference for p not in odd and
    w_p for p in odd, and T[m] the sum of chi over the monic f of degree m
    (the ``accel`` sweep, handed the primes of odd). When odd is not
    empty, chi is nontrivial; the monic f of a degree m >= deg prod odd
    run over every residue class modulo prod odd equally often, so
    T[m] = 0, and T is swept only to deg prod odd - 1. With odd empty, chi
    is principal and T[m] = q^m. prod odd divides g, whose degree is at
    most that of the other slots, so the sweep costs no more than the q to
    that degree ``slice_batch`` has priced.
    p's factor, cut at xbound, is a function of the seed and of
    (deg p, q, v_p, i, top, eps_p), top = xbound // deg p + 1 its number of
    terms: whether p is in odd is read off v_p and i. It is built once per
    key, its weights through ``local_weight_value``, and kept in the seed's
    ``_slice_factors``; the support, odd, eps_p, s0 and T are per slice.
    The brute sum of H over every f, and the sum over every smooth part
    f_s, are the oracles in the tests.
    """
    n1 = len(fixed)
    support = _prime_support(fq, fixed[:i] + (ONE,) + fixed[i + 1 :])
    odd = [p for p, vec in support.items() if (vec[i - 1] + vec[(i + 1) % n1]) % 2]
    euler = [_twist_sign(fq, support)] + [0] * xbound
    factors = seed._slice_factors
    for p, vec in support.items():
        eps = 1
        for r in odd:
            if r != p:
                eps *= fq.residue_symbol(p, r)
        dp = degree(p)
        top = xbound // dp + 1
        key = (dp, fq.q, vec, i, top, eps)
        terms = factors.get(key)
        if terms is None:
            weights = [
                local_weight_value(dp, fq.q, vec[:i] + (e,) + vec[i + 1 :], seed)
                for e in range(top)
            ]
            if p not in odd:
                # f_c is prime to p and chi(p) = eps_p: the factor gains (1 - eps_p x^dp)
                weights = [w - v for w, v in zip(weights, [0] + weights)]
            terms = factors[key] = [(e * dp, w * eps**e) for e, w in enumerate(weights)]
        euler = _times(euler, terms)
    if not any(euler):
        return euler
    # a nontrivial primitive character's complete sums vanish from its degree on
    swept = min(xbound, sum(map(degree, odd)) - 1) if odd else xbound
    sums = accel.symbol_sums_by_degree(fq, odd, swept).tolist()
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
