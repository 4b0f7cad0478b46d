"""Explicit residue products, the diagonal pipeline, and cross-checks.

The residue of the full series at the odd-indexed variables admits an
explicit infinite-product formula over the even-indexed variables. This
module describes that product once, as a finite list of families w + 2m
delta, m >= 0, along the null root delta = (1, ..., 1) (:func:`families`);
:func:`build_R` expands them to a degree. From the product it derives the
diagonal seed that pins down the axiomatic series, and verifies the
structural claims tying the product back to the recurrence engine:
coefficient maps, factor pairing, scalar-cocycle functional equations and
the flat-part reconstruction of the diagonal factors. The Euler-product
substitution maps a residue coefficient to the local weight H at its
index; both are read from one engine coefficient, so the substitution is
an identity, and its check tests only that each such H is an integer
polynomial in |p| (:func:`check_euler_substitution`). The pairing and
each cocycle functional equation are checked on the families, so at
every degree (:func:`_compare_families`). The generators of those
functional equations are written once, as one table
(:func:`fe_generators`): the swaps x_i -> 1/x_i, and for n even
``cycle-squared`` and ``edge``.
:func:`check_fe` checks one entry, and the tests read the same table to
certify that the swaps and ``edge`` generate the affine Weyl group of type
Ã (``tests/test_weyl_group.py``). The product's diagonal R_diag is
expanded once per run, by :func:`run_pipeline`, and kept on its result:
the reconstruction and the partition checks read it there. Every check
returns ``{"status", "witness"}``, the witness only when it does not
pass.
"""

from __future__ import annotations

import operator
from collections import Counter, defaultdict
from dataclasses import dataclass

from .fqpoly import Fq
from .globalweights import H_global, enforce_budget
from .qlaurent import QL_ONE, QLaurent
from .reducer import (
    DiagonalSeed,
    compute_P,
    local_weight,
    reduce_coeff,
    tuples_with_sum_at_most,
)
from .series import (
    Factors,
    MultiSeries,
    expand_diagonal,
    expand_factors,
    factorize_product_form,
    progressions,
)

_BETA0 = 0  # q^0
_BETA_HALF = 2  # q^(1/2) in quarter units
_BETA1 = 4  # q^1


def n_even_vars(n: int) -> int:
    """Number of surviving (even-indexed) variables."""
    return (n + 1) // 2 if n % 2 else n // 2 + 1


def families(n: int) -> Factors:
    """The residue product over the even-indexed variables, as families.

    Variable slot j stands for x_{2j}. An entry (w, beta): gamma stands for
    the factors (1 - q^beta x^(w + 2m delta))^(-gamma) for every m >= 0,
    with delta = (1, ..., 1) the null root: the diagonal family and the
    windows of 2s over consecutive slots (cyclic for n odd; prefixes,
    suffixes, interior windows and their complements for n even).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    k = n_even_vars(n)
    fams: Counter = Counter()

    def window(slots, betas, gamma=1):
        w = tuple(2 * int(t in slots) for t in range(k))
        for beta in betas:
            fams[(w, beta)] += gamma

    if n % 2:
        for beta in (_BETA0, _BETA1):
            fams[((1,) * k, beta)] += 1
        # cyclic windows, the full cycle included once per start: those
        # merge into the even diagonal family 2 delta with gamma = k
        for u in range(k):
            for length in range(1, k + 1):
                window({(u + t) % k for t in range(length)}, (_BETA0, _BETA1))
    else:
        window(range(k), (_BETA0, _BETA1), n // 2)
        for u in range(k - 1):
            # prefix x_0..x_{2u}, suffix x_{2u+2}..x_n, both at q^(1/2)
            window(range(u + 1), (_BETA_HALF,))
            window(range(u + 1, k), (_BETA_HALF,))
        for u in range(1, k - 1):
            for v in range(u, k - 1):
                window(range(u, v + 1), (_BETA0, _BETA1))
                window([t for t in range(k) if not u <= t <= v], (_BETA0, _BETA1))
    return dict(fams)


def build_R(n: int, bound: int) -> Factors:
    """The factors of the residue product up to total degree ``bound``:
    the :func:`families` expanded along 2 delta."""
    return progressions(families(n), (2,) * n_even_vars(n), bound)


# -- diagonal pipeline -----------------------------------------------------


@dataclass
class PipelineResult:
    seed: DiagonalSeed
    p: list[QLaurent]  # p_0..p_max_degree of the universal diagonal ratio P
    r_diag: MultiSeries  # the diagonal of the residue product to x^max_degree


_PIPELINE_CACHE: dict[tuple[int, int], PipelineResult] = {}


def _p_series(p: list[QLaurent], max_degree: int) -> MultiSeries:
    """P as a one-variable series to degree max_degree."""
    if len(p) <= max_degree:
        raise ValueError(f"P holds coefficients up to {len(p) - 1} < D={max_degree}")
    return MultiSeries(1, max_degree, {(a,): c for a, c in enumerate(p)})


def run_pipeline(n: int, max_degree: int) -> PipelineResult:
    """Derive the axiomatic diagonal seed from the explicit residue product.

    R_diag(x) = P(x) * Z_diag(q^{-(n+1)/2} x), so dividing the diagonal of
    the expanded product by P (one :meth:`~mdslab.series.MultiSeries.div`)
    recovers the diagonal coefficients. Each
    recovered coefficient beyond the constant must be divisible by q and
    land in Z[q]; violations abort the pipeline. The diagonal is read from
    the box [0, max_degree]^k of the product. The result carries P and
    R_diag, so a run derives each once; the seed and P of a smaller degree
    are prefixes of these (pinned in the tests), and R_diag truncated to a
    smaller degree is the diagonal expanded to it.
    """
    key = (n, max_degree)
    cached = _PIPELINE_CACHE.get(key)
    if cached is not None:
        return cached
    k = n_even_vars(n)
    r_diag = expand_diagonal(build_R(n, max_degree * k), k, max_degree)
    p = compute_P(n, max_degree)
    z_scaled = r_diag.div(_p_series(p, max_degree))
    if z_scaled.coeff((0,)) != QL_ONE:
        raise ValueError("pipeline: constant diagonal term is not 1")
    diag: list[QLaurent] = []
    for a in range(max_degree + 1):
        c = z_scaled.coeff((a,))
        if a > 0 and c and c.min_quarters() < 4:
            raise ValueError(f"dominance violation: diagonal ratio at x^{a} = {c!r}")
        recovered = c.shift(2 * a * (n + 1))
        if any(e % 4 for e in recovered.terms):
            raise ValueError(f"non-integral exponents in recovered diagonal at a={a}")
        if n % 2 == 0 and a % 2 and recovered:
            raise ValueError(f"even-series violation at a={a}")
        diag.append(recovered)
    result = PipelineResult(seed=DiagonalSeed(diag, name=f"pipeline-n{n}"), p=p, r_diag=r_diag)
    _PIPELINE_CACHE[key] = result
    return result


def _layout(n: int, avec: tuple, join) -> list:
    """The full index of the residue coefficient at avec, by slot.

    The even slots carry avec; each odd slot joins its two neighbors with
    ``join`` (cyclically for n odd): + on degrees, product on polynomials.
    """
    k = len(avec)
    out = []
    for j in range(k if n % 2 else k - 1):
        out.append(avec[j])
        out.append(join(avec[j], avec[(j + 1) % k]))
    if n % 2 == 0:
        out.append(avec[k - 1])
    return out


def residue_index(n: int, avec: tuple[int, ...]) -> tuple[int, ...]:
    """Full coefficient index realizing the residue coefficient at avec."""
    if len(avec) != n_even_vars(n):
        raise ValueError("avec length mismatch")
    return tuple(_layout(n, avec, operator.add))


def residue_coeff_from_c(n: int, avec: tuple[int, ...], seed: DiagonalSeed) -> QLaurent:
    """Residue coefficient at x^avec from the recurrence engine."""
    avec = tuple(avec)
    c = reduce_coeff(residue_index(n, avec), seed)
    total = sum(avec)
    if n % 2:
        return c.shift(-8 * total)
    return c.shift(3 * (avec[0] + avec[-1]) - 8 * total)


def check_pipeline_consistency(n: int, bound: int, seed: DiagonalSeed) -> dict:
    """Product-expansion coefficients equal the engine route everywhere.

    This is the computational content of existence/uniqueness: the factor
    product and the axiom engine independently produce the same residue.
    ``seed`` is the pipeline seed, with diagonal values up to at least
    ``bound``.
    """
    if len(seed.values) <= bound:
        raise ValueError(f"seed holds diagonals up to {len(seed.values) - 1} < D={bound}")
    k = n_even_vars(n)
    expanded = expand_factors(build_R(n, bound), k, bound)
    for avec in tuples_with_sum_at_most(k, bound):
        want = expanded.coeff(avec)
        got = residue_coeff_from_c(n, avec, seed)
        if want != got:
            return {"status": "fail", "witness": f"avec={avec}: product {want!r} vs engine {got!r}"}
    return {"status": "pass"}


def check_factor_pairing(n: int) -> dict:
    """The residue factor multiset is invariant under beta -> 1 - beta, at
    every degree: the reflected families equal the families."""
    fams = families(n)
    reflected = {(w, 4 - beta): gamma for (w, beta), gamma in fams.items()}
    return _compare_families(reflected, fams, Counter())


# -- H-route and Euler substitution ---------------------------------------


def residue_coeff_H_route(fq: Fq, n: int, avec: tuple[int, ...], seed: DiagonalSeed) -> int:
    """Residue coefficient by enumerating monic tuples with equal squarefree
    parts and assembling the local weights globally.

    Such tuples are f_j = m s_j^2 with m squarefree of degree e, e = a_j
    (mod 2) for every j, and each arises from exactly one (m, s_0, ...,
    s_{k-1}). So the enumeration runs over e, then the tuples (m, s_0,
    ...) with m of degree e and s_j of degree (a_j - e)/2, m squarefree.
    Moving m and every s_j at once by one element of the group G of
    ``Fq.monic_orbits`` moves every entry of the layout alike (products
    commute with it) and keeps m squarefree, so it fixes H: the tuples
    are read one per orbit of G, times the orbit size. The filtered product of
    every monic tuple stays in the tests as the oracle. It is refused past
    ``globalweights.BUDGET``, pricing every tuple, through the
    ``enforce_budget`` that prices ``global_coeff_sums``. Returns the sum
    of H over the tuples; times q to the :func:`h_route_exponent` it is
    the engine coefficient at :func:`residue_index` evaluated at q.
    """
    k = len(avec)
    # the degrees e of m: e = a_j mod 2 and e <= a_j for every j
    parities = {a % 2 for a in avec}
    degrees = range(avec[0] % 2, min(avec) + 1, 2) if len(parities) == 1 else range(0)
    enforce_budget(k, sum(fq.q ** (e + sum(a - e for a in avec) // 2) for e in degrees))
    total = 0
    for e in degrees:
        for (m, *ss), size in fq.monic_orbits([e] + [(a - e) // 2 for a in avec]):
            if fq.is_squarefree(m):
                fs = [fq.mul(m, fq.mul(s, s)) for s in ss]
                total += size * H_global(fq, tuple(_layout(n, fs, fq.mul)), seed)
    return total


def h_route_exponent(n: int, avec: tuple[int, ...]) -> int:
    """The power of q carrying the H-route sum at avec to the engine value:
    sum(avec) for n odd, sum(avec) - (a_0 + a_{k-1})//2 for n even, k =
    len(avec).

    For n even, tau of the residue index (the parity invariant of
    ``reducer``) is a_0 + a_{k-1} + a_0 a_{k-1} mod 2, so under a seed
    whose odd diagonals vanish the engine coefficient is zero unless a_0
    and a_{k-1} are both even. Where it is zero both sides are, so the
    floor is harmless.
    """
    s = sum(avec)
    return s if n % 2 else s - (avec[0] + avec[-1]) // 2


def check_euler_substitution(n: int, p_deg: int, bound: int, seed: DiagonalSeed) -> dict:
    """Each local weight at a residue index is an integer polynomial in |p|.

    The residue coefficient at avec under q -> q^{-d}, x_i -> x_i^d (d =
    deg p) is the local Euler factor H(p^{t_0}, ..., p^{t_n}) at t =
    :func:`residue_index`, up to a power of |p|. Both sides are read from
    one engine coefficient c_t, so that comparison is an identity. Write S
    = sum(avec) and E = a_0 + a_{k-1}. Then sum(t) is 3S (n odd) or 3S - E
    (n even); :func:`residue_coeff_from_c` is c_t q^{R/4} with R = -8S or
    3E - 8S; ``local_weight`` is H(q) = c_t(q^{-1}) q^{sum t}. The
    substitution's weight w, 4S or 4S - E quarters, is 4 sum(t) + R, so
    H(q^d) q^{-dw/4} and the residue coefficient at q^{-d} are both
    c_t(q^{-d}) q^{-dR/4}, for every c_t. What can fail is that H is an
    integer polynomial in |p|: ``local_weight`` raises a local-to-global
    violation at the first avec, of total at most ``bound``, where it is
    not. The prime degree reaches only its guard d >= 1.
    """
    for avec in tuples_with_sum_at_most(n_even_vars(n), bound):
        local_weight(p_deg, residue_index(n, avec), seed)
    return {"status": "pass"}


# -- scalar-cocycle functional equations ----------------------------------


def _apply_linear(matrix: list[list[int]], alpha: tuple[int, ...]) -> tuple[int, ...]:
    k = len(matrix)
    return tuple(sum(matrix[r][c] * alpha[c] for c in range(k)) for r in range(k))


def _on_line(alpha: tuple[int, ...], beta: int):
    """The line of alpha through 2 delta, keyed by beta and its point of
    least entry 0 or 1, and the position j of alpha on it."""
    j = min(alpha) // 2
    return (beta, tuple(a - 2 * j for a in alpha)), j


def _compare_families(image, fams, traded: Counter) -> dict:
    """Check image - fams = traded as multisets of factors, at every degree.

    ``image`` and ``fams`` are families, each standing for its factors at
    w + 2m delta for all m >= 0; ``traded`` is finite. A family counts
    gamma at its start on its line and at every later position, so on each
    line the difference image - fams at position j is the running sum of
    the start counts up to j. It must equal traded there, for j from the
    first start or traded point to one past the last: beyond that both are
    constant, and the difference is zero only when the gamma totals of the
    line agree.
    """
    starts: defaultdict = defaultdict(Counter)
    for sign, fam in ((1, image), (-1, fams)):
        for (w, beta), gamma in fam.items():
            line, j = _on_line(w, beta)
            starts[line][j] += sign * gamma
    want: defaultdict = defaultdict(Counter)
    for (alpha, beta), count in traded.items():
        line, j = _on_line(alpha, beta)
        want[line][j] += count
    for line in sorted(starts.keys() | want.keys()):
        positions = starts[line].keys() | want[line].keys()
        diff = 0
        for j in range(min(positions), max(positions) + 2):
            diff += starts[line][j]
            if diff != want[line][j]:
                beta, base = line
                alpha = tuple(a + 2 * j for a in base)
                return {
                    "status": "fail",
                    "witness": f"alpha={alpha}, beta={beta}/4: image less product has"
                    f" multiplicity {diff}, the trade {want[line][j]}",
                }
    return {"status": "pass"}


def _check_factor_permutation(
    n: int, matrix: list[list[int]], removed: list[tuple[tuple[int, ...], int]]
) -> dict:
    """Verify the substitution permutes the residue factor multiset except
    for the listed removed factors, which are traded for their negated
    counterparts (the scalar cocycle).

    Let F be the factor multiset of the infinite product and G = F -
    removed + (negated removed). The claim is M(F) = G at every degree. M
    must fix delta; then it maps the family w + 2m delta onto Mw + 2m
    delta, so M(F) is again a sum of families and the claim is the finite
    comparison of :func:`_compare_families`.
    """
    delta = (1,) * len(matrix)
    if _apply_linear(matrix, delta) != delta:
        raise ValueError("substitution matrix does not fix delta = (1, ..., 1)")
    fams = families(n)
    image: Counter = Counter()
    for (w, beta), gamma in fams.items():
        image[(_apply_linear(matrix, w), beta)] += gamma
    traded: Counter = Counter()
    for alpha, beta in removed:
        traded[(alpha, beta)] -= 1
        traded[(tuple(-a for a in alpha), beta)] += 1
    return _compare_families(image, fams, traded)


def fe_generators(n: int) -> dict:
    """The generators of the residue's functional equations, in report order.

    The keys are first the even positions i whose swap x_i -> 1/x_i has a
    residue FE (0..n for n odd, 2..n-2 for n even), then for n even
    "cycle-squared" and "edge". Each value is (matrix, removed) for
    :func:`_check_factor_permutation`: the substitution on the exponents
    of the even variables, column u the exponents of the u-th substituted
    argument, and the factors traded for their negations. A matrix is the
    identity with some rows replaced, each row given as (column, entry)
    pairs whose entries add up. The paper's n = 2 and n = 4 variants of
    the n-even transforms differ from the generic form and are not spelled
    out; their value is None, an unverified special case.
    """
    k = n_even_vars(n)
    last = k - 1

    def matrix(rows):
        mat = [[int(r == c) for c in range(k)] for r in range(k)]
        for r, pairs in rows.items():
            mat[r] = [0] * k
            for c, entry in pairs:
                mat[r][c] += entry
        return mat

    def alpha(slots, m=0):  # 2 on the slots, plus 2m delta
        return tuple(2 * m + 2 * int(t in slots) for t in range(k))

    table: dict = {}
    for i in range(0, n + 1, 2) if n % 2 else range(2, n, 2):
        u = i // 2
        row = [((u - 1) % k, 1), ((u + 1) % k, 1), (u, -1)]
        table[i] = (matrix({u: row}), [(alpha({u}), _BETA0), (alpha({u}), _BETA1)])
    if n % 2 == 0:
        table["cycle-squared"] = table["edge"] = None
    if n % 2 == 0 and n > 4:
        cycle = {0: [(0, 3), (last - 1, 1), (last, -3)]}
        cycle.update({r: [(0, 2), (r - 1, 1), (last, -2)] for r in range(1, k)})
        prefixes = [(alpha(range(u + 1), m), _BETA_HALF) for m in (0, 1) for u in range(last)]
        table["cycle-squared"] = (matrix(cycle), prefixes + [(alpha({0}, 2), _BETA_HALF)])
        # y_0 = 1/x_n, y_2 = x_0 x_2 x_n, middle fixed, y_{n-2} = x_0 x_{n-2} x_n,
        # y_n = 1/x_0
        side = [(1, 1), (last - 1, 1)]
        ends = alpha({0, last})
        table["edge"] = (
            matrix({0: side + [(last, -1)], last: side + [(0, -1)]}),
            [(alpha({0}), _BETA_HALF), (alpha({last}), _BETA_HALF), (ends, _BETA0), (ends, _BETA1)],
        )
    return table


def check_fe(n: int, key: int | str) -> dict:
    """The scalar-cocycle functional equation of the generator ``key`` of
    :func:`fe_generators`."""
    table = fe_generators(n)
    if key not in table:
        raise ValueError(f"no residue functional equation {key!r} for n={n}")
    if table[key] is None:
        return {"status": "unverified special case"}
    return _check_factor_permutation(n, *table[key])


# -- flat-part reconstruction ----------------------------------------------


def reconstruct_R1(n: int, bound: int, pipe: PipelineResult) -> dict:
    """Recover the diagonal factors from P and the off-diagonal product.

    (P / R_{0,diag})^flat, completed under beta -> 1-beta pairing, must
    reproduce the diagonal sub-multiset of the explicit product; the
    quotient is one :meth:`~mdslab.series.MultiSeries.div`.
    Factors are trusted up to degree bound/2 (truncation aliasing guard).
    A factor of degree d of a product form depends only on the coefficients
    up to degree d, so P and R_{0,diag} are read to bound/2 alone.
    Each diagonal factor is a power of x_0 x_2 ... alone, so R_diag is
    R_{0,diag} times their one-variable product: R_{0,diag} is the
    pipeline's R_diag, truncated to bound/2, times those factors with
    gamma negated. ``pipe`` is a pipeline built to degree at least
    ``bound``; a shorter one is refused before any work. A trusted factor
    with 0 < beta < 1 other than 1/2 raises; for n even a beta = 1/2 factor
    fails the check. The completion reads only the flat factors.
    """
    trust = bound // 2
    p = MultiSeries(1, trust, _p_series(pipe.p, bound).terms)
    # a family lies on the diagonal exactly when its start w does
    fams = {((w[0],), beta): gamma for (w, beta), gamma in families(n).items() if len(set(w)) == 1}
    expected = progressions(fams, (2,), trust)
    negated = {key: -gamma for key, gamma in expected.items()}
    r0_diag = MultiSeries(1, trust, pipe.r_diag.terms).mul(expand_factors(negated, 1, trust))
    trusted = sorted(factorize_product_form(p.div(r0_diag)).items())
    # beta <= 0 is flat, 1/2 natural, >= 1 sharp; nothing lies in between
    anomalies = [(a, b, g) for (a, b), g in trusted if 0 < b < _BETA1 and b != _BETA_HALF]
    if anomalies:
        raise ValueError(f"factors with beta strictly between 0 and 1: {anomalies}")
    natural = [item for item in trusted if item[0][1] == _BETA_HALF]
    if n % 2 == 0 and natural:
        return {
            "status": "fail",
            "witness": f"diagonal beta=1/2 factors should not exist: {natural}",
        }
    completed = {}
    for (alpha, beta), gamma in trusted:
        if beta <= 0:  # the flat factor and its beta -> 1 - beta partner
            completed[(alpha, beta)] = completed[(alpha, _BETA1 - beta)] = gamma
    if completed != expected:
        return {
            "status": "fail",
            "witness": f"reconstructed {sorted(completed.items())} vs "
            f"direct {sorted(expected.items())}",
        }
    return {"status": "pass"}
