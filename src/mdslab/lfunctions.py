"""Quadratic Dirichlet L-functions over F_q(t) and their invariants.

For squarefree monic g, L(x, chi_g) = sum over monic f of (f/g) x^{deg f}
is a polynomial of degree deg g - 1. This module computes it by direct
character summation (``accel.symbol_sums_by_degree`` on g's primes, so
an H slice whose character is chi_g reads the same sums),
checks its functional equation (``check_reversal`` at the integer q,
after the trivial zero is divided out in integers) and the Riemann
hypothesis (all inverse roots on |x| = q^{1/2}, up to RH_TOL), and
verifies the cubic moment identity tying averages of L-values to divisor
sums. The moment check reads one row of symbols (f/g) per monic modulus g
from ``accel.symbol_rows``: one route multiplies the rows of f_1 and f_3
(multiplicativity in the modulus), the other weighs the row sums of each f
by its divisor count (factorisation). Both routes are fixed by the group
G of ``Fq.monic_orbits``, g -> a^(-deg g) g(a t + b) with a a nonzero
square, which keeps every symbol, so f_1 and the other route's f run over
its orbit representatives, each weighed by its own orbit size.
The rows of every g of degree <= dmax / 2 are kept, as they pair as f_3;
the representatives' rows of every degree are built in chunks of at most
ROW_CHUNK_BYTES, and each chunk is freed once reduced. Every check
returns ``{"status", "witness"}``; ``check_rh``, the one floating-point
check, also reports its largest root deviation as ``max_deviation``.
``check_l_fe`` and ``check_rh`` are the documented L-function API: no CLI
suite runs them, and the tests and the acceptance gate call them.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from . import accel
from .fqpoly import Fq, degree
from .reducer import check_reversal

# Most residue symbols one moment check may evaluate, as check_moment_cost
# counts them: about 2 s on a 2-vCPU host (q=5, dmax=6 evaluates 7.1e8 in
# 1.3 s, q=13, dmax=4 2.9e8 in 0.9 s).
MAX_MOMENT_SYMBOLS = 10**9
# Most bytes of one chunk of the representatives' symbol rows in the moment
# check.
ROW_CHUNK_BYTES = 2**19
# Largest deviation of a root modulus from q^{-1/2} that check_rh accepts.
RH_TOL = 1e-6


def l_poly(fq: Fq, g) -> list[int]:
    """Coefficients of L(x, chi_g) for squarefree monic g of positive degree.

    The summation is carried one degree past the generic degree bound and
    the extra coefficient is asserted to vanish.
    """
    g = tuple(g)
    dg = degree(g)
    if dg < 1:
        raise ValueError("g must have positive degree (use the zeta factor for g = 1)")
    if not fq.is_squarefree(g):
        raise ValueError("g must be squarefree")
    sums = accel.symbol_sums_by_degree(fq, [p for p, _ in fq.factor(g)[0]], dg)
    if sums[dg] != 0:
        raise AssertionError(f"character sum fails to vanish at degree {dg}")
    return [int(s) for s in sums[:dg]]


def _check_reduced_l(fq: Fq, g, check) -> dict:
    """``check`` on the coefficients of L(x, chi_g), the trivial zero
    (1 - x) divided out first when deg g is even; a failure when x = 1 is
    not a root.

    The quotient's coefficients are the prefix sums of L's integer
    coefficients, so they are integers; the remainder is their total, L(1).
    """
    coeffs = l_poly(fq, tuple(g))  # deg g coefficients
    if len(coeffs) % 2 == 0:
        coeffs = list(accumulate(coeffs))
        if coeffs.pop() != 0:
            return {"status": "fail", "witness": "missing trivial zero at x = 1"}
    return check(coeffs)


def check_l_fe(fq: Fq, g) -> dict:
    """Functional equation of L(x, chi_g), exact in integers.

    Odd degree: L has degree dg - 1 and the reversal of
    ``check_reversal``. Even degree: after exact division by the trivial
    zero (1 - x), the quotient of degree dg - 2 has the same reversal.
    """
    return _check_reduced_l(
        fq, g, lambda coeffs: check_reversal(coeffs, len(coeffs) - 1, lambda j: fq.q**j)
    )


def check_rh(fq: Fq, g) -> dict:
    """All inverse roots of L(x, chi_g) have absolute value q^{1/2}, up to
    RH_TOL.

    For even-degree g the trivial zero at x = 1 is divided out exactly
    before the numeric root finding.
    """
    return _check_reduced_l(fq, g, lambda coeffs: _check_root_moduli(fq, coeffs))


def _check_root_moduli(fq: Fq, coeffs: list[int]) -> dict:
    """The RH report of the polynomial with these coefficients."""
    report = {"status": "pass"}
    if len(coeffs) <= 1:
        return report
    poly = np.array([float(c) for c in reversed(coeffs)])
    roots = np.roots(poly)
    target = fq.q ** -0.5  # roots in x; inverse roots have modulus q^{1/2}
    worst = float(max(abs(abs(r) - target) for r in roots)) if len(roots) else 0.0
    report["max_deviation"] = worst
    if worst > RH_TOL:
        report["status"] = "fail"
        report["witness"] = f"root modulus off by {worst:.3e}"
    return report


def divisor_count(fq: Fq, f) -> int:
    """Number of monic divisors of f."""
    factors, _ = fq.factor(tuple(f))
    out = 1
    for _, mult in factors:
        out *= mult + 1
    return out


def check_moment_cost(q: int, dmax: int) -> None:
    """Raise ValueError, with the estimate, if the moment check is too big.

    The count is of the symbols and symbol products that the orbit route of
    ``_moment_sides`` evaluates, each over every monic f of degree <= dmax:
    one row per monic g of degree <= dmax / 2 and one more per
    representative g of every degree, and route A's Gram entries
    (f/f_1)(f/f_3) for every representative f_1 of degree d and monic f_3 of
    degree e <= min(d, dmax - d).
    """
    # an upper bound on the representatives of Fq.monic_orbits((d,)): the
    # translation representatives, one in q when d has a pivot (d prime to
    # q), else every monic g of degree d; the square scalings cut them
    # further, by up to (q - 1) / 2
    reps = [q ** (d - 1) if d % q else q**d for d in range(dmax + 1)]
    rows = sum(q**d for d in range(dmax // 2 + 1)) + sum(reps)
    pairs = sum(reps[d] * q**e for d in range(dmax + 1) for e in range(min(d, dmax - d) + 1))
    count = (rows + pairs) * sum(q**d for d in range(dmax + 1))
    if count > MAX_MOMENT_SYMBOLS:
        raise ValueError(
            f"the moment check at q={q}, dmax={dmax} evaluates {count:.1e} "
            f"residue symbols, above the limit {MAX_MOMENT_SYMBOLS:.1e}"
        )


def _moment_sides(fq: Fq, dmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(side A, side B) of the cubic-moment identity, each indexed by
    (deg f_1 f_3, deg f_0, deg f_2); see ``moment_identity_check``.

    Every term is fixed by each element of the group G of
    ``Fq.monic_orbits`` applied to f_1 and f_3 together: it keeps each
    symbol and permutes the f summed over. So f_1 and route B's g run over
    the orbit representatives, each weighed by its own orbit size, while
    f_3 runs over every monic polynomial. One loop over the degrees d keeps
    the rows of every g of degree d when 2d <= dmax, for the f_3 of later
    degrees, and builds the representatives' rows of degree d a chunk at a
    time.
    """
    q = fq.q
    blocks = [slice(q**b, 2 * q**b) for b in range(dmax + 1)]
    side_a = np.zeros((dmax + 1,) * 3, dtype=np.int64)
    side_b = np.zeros_like(side_a)
    low = []  # the rows of every g of degree <= dmax / 2, paired again later
    step = max(1, ROW_CHUNK_BYTES // (2 * q**dmax))
    for d in range(dmax + 1):
        orbits = list(fq.monic_orbits((d,)))
        reps = [g for (g,), _ in orbits]
        sizes = np.array([size for _, size in orbits], dtype=np.int64)
        if 2 * d <= dmax:
            low.append(accel.symbol_rows(fq, list(fq.monic_enum(d)), dmax))
        # the representatives' rows are built and reduced a chunk at a time
        for k in range(0, len(reps), step):
            gs, w = reps[k : k + step], sizes[k : k + step]
            rows = accel.symbol_rows(fq, gs, dmax)
            # route A: G_b[f_1, f_3] = sum over f of degree b of
            # (f/f_1)(f/f_3), the degree-b sum of (f / f_1 f_3), for
            # deg f_1 = d, deg f_3 = e; side A[d + e][b, b'] gains
            # sum G_b * G_b', entry by entry and weighed by the orbit size of
            # f_1, which the chunks split by f_1. The pairs (e, d) give the
            # transposes, so they count twice when e < d.
            for e in range(min(d, dmax - d) + 1):
                gram = np.stack([
                    np.einsum("ik,jk->ij", rows[:, b], low[e][:, b], dtype=np.int64).ravel()
                    for b in blocks
                ])
                # the raveled entries run over f_3 within f_1
                w_f1 = np.repeat(w, len(low[e]))
                side_a[d + e] += (1 if e == d else 2) * ((gram * w_f1) @ gram.T)
            # route B: the sums by degree of each g, weighted by its orbit
            # size times its number of monic divisors
            sigma = np.array([divisor_count(fq, g) for g in gs], dtype=np.int64)
            sums = np.stack([rows[:, b].sum(axis=1, dtype=np.int64) for b in blocks], axis=1)
            side_b[d] += sums.T @ ((w * sigma)[:, None] * sums)
            del rows  # a chunk is freed before the next is built
    return side_a, side_b


def moment_identity_check(fq: Fq, dmax: int) -> dict:
    """Cubic-moment identity between two independent summation routes.

    Both sides are integer arrays indexed by (deg f_1 f_3, deg f_0,
    deg f_2), each degree 0..dmax, read from one row of symbols (f/g) per
    monic modulus g (``accel.symbol_rows``); the identity demands exact
    equality.
    Route A: the four-fold sum over monic (f_0, f_1, f_2, f_3) of
    (f_0 / f_1 f_3)(f_2 / f_1 f_3). By multiplicativity in the modulus,
    (f / f_1 f_3) = (f / f_1)(f / f_3), so for each pair of degrees the
    character sums of every product f_1 f_3 are one Gram matrix of the two
    row matrices per degree block of f, and no f_1 f_3 is multiplied out.
    Route B: sum over monic f of sigma_0(f), from f's factorisation, times
    the outer product of f's own character sums by degree.
    Each sum runs over the orbits of the group G of ``Fq.monic_orbits``:
    f_1 in route A and f in route B over its representatives, times each
    one's orbit size (see ``_moment_sides``).
    """
    check_moment_cost(fq.q, dmax)
    side_a, side_b = _moment_sides(fq, dmax)
    if np.array_equal(side_a, side_b):
        return {"status": "pass"}
    bad = tuple(int(i) for i in np.argwhere(side_a != side_b)[0])
    return {"status": "fail", "witness": f"index {bad}: {int(side_a[bad])} != {int(side_b[bad])}"}
