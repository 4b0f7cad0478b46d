"""Explicit residue products, the diagonal pipeline, and cross-checks.

The residue of the full series at the odd-indexed variables admits an
explicit infinite-product formula over the even-indexed variables. This
module builds that product as a factor list, derives from it the diagonal
seed that pins down the axiomatic series, and verifies the structural
claims tying the product back to the recurrence engine: coefficient maps,
Euler-product substitution, factor pairing, scalar-cocycle functional
equations and the flat-part reconstruction of the diagonal factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fqpoly import Fq
from .qlaurent import QL_ONE, QL_ZERO, QLaurent
from .reducer import DiagonalSeed, compute_P, reduce_coeff
from .series import (
    FactorList,
    MultiSeries,
    expand_factors,
    factorize_product_form,
    pairing_completion,
    split_flat_natural_sharp,
)

_BETA0 = 0  # q^0
_BETA_HALF = 2  # q^(1/2) in quarter units
_BETA1 = 4  # q^1


def n_even_vars(n: int) -> int:
    """Number of surviving (even-indexed) variables."""
    return (n + 1) // 2 if n % 2 else n // 2 + 1


def build_R(n: int, bound: int) -> FactorList:
    """Factor list of the residue product over the even-indexed variables.

    Variable slot j stands for x_{2j}. Every infinite family is expanded
    until its factor's total degree exceeds the bound.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    k = n_even_vars(n)
    fl = FactorList()

    def add_window(base: list[int], positions, beta_list, gamma=1):
        alpha = list(base)
        for p in positions:
            alpha[p] += 2
        if sum(alpha) <= bound and any(alpha):
            for beta in beta_list:
                fl.add(tuple(alpha), beta, gamma)

    if n % 2:
        m = 0
        while True:
            deg_diag_odd = (2 * m + 1) * k
            deg_window_min = 2 * m * k + 2
            if deg_diag_odd > bound and deg_window_min > bound:
                break
            base = [2 * m] * k
            if deg_diag_odd <= bound:
                fl.add(((2 * m + 1),) * k, _BETA0, 1)
                fl.add(((2 * m + 1),) * k, _BETA1, 1)
            # cyclic windows over even indices, full cycle included
            # (full-cycle windows merge into the even diagonal factors)
            for u in range(k):
                for length in range(1, k + 1):
                    add_window(base, [(u + t) % k for t in range(length)], (_BETA0, _BETA1))
            m += 1
    else:
        half = n // 2
        m = 0
        while True:
            deg_diag = (2 * m + 2) * k
            deg_window_min = 2 * m * k + 2
            if deg_diag > bound and deg_window_min > bound:
                break
            base = [2 * m] * k
            if deg_diag <= bound:
                fl.add(((2 * m + 2),) * k, _BETA0, half)
                fl.add(((2 * m + 2),) * k, _BETA1, half)
            for u in range(k - 1):
                # prefix x_0..x_{2u}, suffix x_{2u+2}..x_n, both at q^(1/2)
                add_window(base, range(0, u + 1), (_BETA_HALF,))
                add_window(base, range(u + 1, k), (_BETA_HALF,))
            for u in range(1, k - 1):
                for v in range(u, k - 1):
                    add_window(base, range(u, v + 1), (_BETA0, _BETA1))
                    add_window(
                        base,
                        list(range(0, u)) + list(range(v + 1, k)),
                        (_BETA0, _BETA1),
                    )
            m += 1
    return fl


_MULT_CACHE: dict[tuple[int, int], FactorList] = {}


def factor_multiplicity(n: int, alpha: tuple[int, ...], beta: int) -> int:
    """Multiplicity of (alpha, beta) in the full infinite residue product.

    Zero whenever alpha has a negative entry; otherwise the product built
    out to total degree sum(alpha) already contains every such factor.
    """
    if any(a < 0 for a in alpha) or all(a == 0 for a in alpha):
        return 0
    d = sum(alpha)
    key = (n, d)
    fl = _MULT_CACHE.get(key)
    if fl is None:
        fl = build_R(n, d)
        _MULT_CACHE[key] = fl
    return fl.factors.get((alpha, beta), 0)


# -- diagonal pipeline -----------------------------------------------------


@dataclass
class PipelineResult:
    n: int
    max_degree: int
    p_coeffs: list[QLaurent]
    r_diag: list[QLaurent]
    seed: DiagonalSeed
    log: list[str]


_PIPELINE_CACHE: dict[tuple[int, int], PipelineResult] = {}


def run_pipeline(n: int, max_degree: int) -> PipelineResult:
    """Derive the axiomatic diagonal seed from the explicit residue product.

    R_diag(x) = P(x) * Z_diag(q^{-(n+1)/2} x), so dividing the diagonal of
    the expanded product by P recovers the diagonal coefficients. Each
    recovered coefficient beyond the constant must be divisible by q and
    land in Z[q]; violations abort the pipeline.
    """
    key = (n, max_degree)
    cached = _PIPELINE_CACHE.get(key)
    if cached is not None:
        return cached
    k = n_even_vars(n)
    log: list[str] = []
    fl = build_R(n, max_degree * k)
    r_full = expand_factors(fl, k, max_degree * k)
    r_diag_series = r_full.diag_part()
    r_diag = r_diag_series.single_var_coeffs(max_degree)
    p_coeffs = compute_P(n, max_degree)
    p_series = MultiSeries(1, max_degree, {(a,): c for a, c in enumerate(p_coeffs)})
    z_scaled = r_diag_series.mul(p_series.inverse())
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
        log.append(f"c_diag[{a}] = {recovered!r}")
    result = PipelineResult(
        n=n,
        max_degree=max_degree,
        p_coeffs=p_coeffs,
        r_diag=r_diag,
        seed=DiagonalSeed(diag, name=f"pipeline-n{n}"),
        log=log,
    )
    _PIPELINE_CACHE[key] = result
    return result


def residue_index(n: int, avec: tuple[int, ...]) -> tuple[int, ...]:
    """Full coefficient index realizing the residue coefficient at avec."""
    k = n_even_vars(n)
    if len(avec) != k:
        raise ValueError("avec length mismatch")
    out = []
    if n % 2:
        for j in range(k):
            out.append(avec[j])
            out.append(avec[j] + avec[(j + 1) % k])
    else:
        for j in range(k - 1):
            out.append(avec[j])
            out.append(avec[j] + avec[j + 1])
        out.append(avec[k - 1])
    return tuple(out)


def residue_coeff_from_c(n: int, avec: tuple[int, ...], seed: DiagonalSeed) -> QLaurent:
    """Residue coefficient at x^avec from the recurrence engine."""
    avec = tuple(avec)
    c = reduce_coeff(residue_index(n, avec), seed)
    total = sum(avec)
    if n % 2:
        return c.shift(-8 * total)
    return c.shift(3 * (avec[0] + avec[-1]) - 8 * total)


def check_pipeline_consistency(n: int, bound: int) -> dict:
    """Product-expansion coefficients equal the engine route everywhere.

    This is the computational content of existence/uniqueness: the factor
    product and the axiom engine independently produce the same residue.
    """
    from .reducer import tuples_with_sum_at_most

    k = n_even_vars(n)
    pipe = run_pipeline(n, bound)
    expanded = expand_factors(build_R(n, bound), k, bound)
    report = {"check": "pipeline_consistency", "n": n, "D": bound, "status": "pass"}
    for avec in tuples_with_sum_at_most(k, bound):
        want = expanded.coeff(avec)
        got = residue_coeff_from_c(n, avec, pipe.seed)
        if want != got:
            report["status"] = "fail"
            report["witness"] = f"avec={avec}: product {want!r} vs engine {got!r}"
            return report
    return report


def check_factor_pairing(n: int, bound: int) -> dict:
    """The residue factor multiset is invariant under beta -> 1 - beta."""
    fl = build_R(n, bound)
    report = {"check": "factor_pairing", "n": n, "D": bound, "status": "pass"}
    if fl.beta_reflected() != fl:
        for (alpha, beta), gamma in fl.items():
            if fl.factors.get((alpha, 4 - beta), 0) != gamma:
                report["status"] = "fail"
                report["witness"] = f"unpaired factor alpha={alpha}, beta={beta}/4"
                return report
    return report


# -- H-route and Euler substitution ---------------------------------------


def residue_coeff_H_route(
    fq: Fq, n: int, avec: tuple[int, ...], seed: DiagonalSeed
) -> Fraction:
    """Residue coefficient by enumerating monic tuples with equal squarefree
    parts and assembling the local weights globally.

    Returns sum of H over the tuples, normalized to match the engine route
    scaled by q^{sum - (a_0+a_n)/2} (n even) or q^{sum} (n odd), so both
    sides are exact rationals.
    """
    from .globalweights import H_global

    avec = tuple(avec)
    k = n_even_vars(n)
    total = 0
    tuples = [()]
    for a in avec:
        tuples = [t + (f,) for t in tuples for f in fq.monic_enum(a)]
    for fs in tuples:
        parts = [fq.squarefree_part(f) for f in fs]
        if len(set(parts)) > 1:
            continue
        full = []
        if n % 2:
            for j in range(k):
                full.append(fs[j])
                full.append(fq.mul(fs[j], fs[(j + 1) % k]))
        else:
            for j in range(k - 1):
                full.append(fs[j])
                full.append(fq.mul(fs[j], fs[j + 1]))
            full.append(fs[k - 1])
        total += H_global(fq, tuple(full), seed)
    return Fraction(total)


def residue_coeff_engine_scaled(
    fq: Fq, n: int, avec: tuple[int, ...], seed: DiagonalSeed
) -> Fraction:
    """Engine-route residue coefficient scaled to match the H-route sum."""
    avec = tuple(avec)
    s = sum(avec)
    c = reduce_coeff(residue_index(n, avec), seed)
    val = c.eval_fraction(fq.q)
    if n % 2:
        return val * Fraction(1, fq.q**s)
    shift = (avec[0] + avec[-1]) // 2 - s
    # a_0 + a_n is even for every nonzero coefficient; for mixed-parity
    # indices the engine value is zero, so the floor is harmless.
    return val * Fraction(fq.q) ** shift if val else Fraction(0)


def check_euler_substitution(n: int, p_deg: int, bound: int, seed: DiagonalSeed) -> dict:
    """The local Euler factor equals the residue coefficients under
    q -> q^{-deg p}, x_i -> x_i^{deg p}."""
    from .reducer import local_weight, tuples_with_sum_at_most

    k = n_even_vars(n)
    report = {"check": "euler_substitution", "n": n, "p_deg": p_deg, "D": bound, "status": "pass"}
    for avec in tuples_with_sum_at_most(k, bound):
        s = sum(avec)
        t = residue_index(n, avec)
        h = local_weight(p_deg, t, seed)  # polynomial in |p|, as QLaurent
        if n % 2:
            w_quarters = 4 * s
        else:
            w_quarters = 4 * s - (avec[0] + avec[-1])
        lhs = h.subst_q_power(p_deg).shift(-p_deg * w_quarters)
        rhs = residue_coeff_from_c(n, avec, seed).subst_q_power(-p_deg)
        if lhs != rhs:
            report["status"] = "fail"
            report["witness"] = f"avec={avec}: local {lhs!r} vs substituted {rhs!r}"
            return report
    return report


# -- scalar-cocycle functional equations ----------------------------------


def _apply_linear(matrix: list[list[int]], alpha: tuple[int, ...]) -> tuple[int, ...]:
    k = len(matrix)
    return tuple(sum(matrix[r][c] * alpha[c] for c in range(k)) for r in range(k))


def _identity(k: int) -> list[list[int]]:
    return [[1 if r == c else 0 for c in range(k)] for r in range(k)]


def _invert_unimodular(matrix: list[list[int]]) -> list[list[int]]:
    k = len(matrix)
    aug = [[Fraction(matrix[r][c]) for c in range(k)] + [Fraction(int(r == c)) for c in range(k)]
           for r in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = [[aug[r][k + c] for c in range(k)] for r in range(k)]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("substitution matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def _check_factor_permutation(
    n: int, matrix: list[list[int]], removed: list[tuple[tuple[int, ...], int]], bound: int
) -> dict:
    """Verify the substitution permutes the residue factor multiset except
    for the listed removed factors, which are traded for their negated
    counterparts (the scalar cocycle).

    The image multiset of the full factor list must equal the list itself
    minus one copy of each removed factor plus one factor at the negation
    of each removed exponent vector. The map need not send each removed
    factor to its own negation, so the identity is verified as a multiset
    statement on a degree window, in both directions.
    """
    removed_set = set(removed)
    negations = {(tuple(-a for a in alpha), beta) for alpha, beta in removed}
    report = {"check": "factor_permutation", "n": n, "D": bound, "status": "pass"}

    def fail(msg: str) -> dict:
        report["status"] = "fail"
        report["witness"] = msg
        return report

    inverse = _invert_unimodular(matrix)
    # factors whose images leave the product: exactly the preimages of the
    # negated removed vectors, each with multiplicity one
    leaving = set()
    for alpha, beta in removed:
        if factor_multiplicity(n, alpha, beta) < 1:
            return fail(f"expected cocycle factor missing: {(alpha, beta)}")
        w = _apply_linear(inverse, tuple(-a for a in alpha))
        if factor_multiplicity(n, w, beta) != 1:
            return fail(f"negated cocycle vector -{alpha} has no unique preimage")
        leaving.add((w, beta))

    window = max(
        [bound]
        + [sum(alpha) for alpha, _ in removed]
        + [sum(alpha) for alpha, _ in leaving]
    )
    checked = build_R(n, window).degree_cut(bound)
    for alpha, beta in removed_set | leaving:
        checked.factors.setdefault((alpha, beta), factor_multiplicity(n, alpha, beta))

    for (alpha, beta), gamma in checked.items():
        image = _apply_linear(matrix, alpha)
        if any(a < 0 for a in image):
            if (image, beta) not in negations or gamma != 1:
                return fail(
                    f"forward: alpha={alpha}, beta={beta}/4, gamma={gamma}"
                    f" maps outside the product to {image}"
                )
            continue
        want = gamma + ((image, beta) in removed_set)
        got = factor_multiplicity(n, image, beta)
        if got != want:
            return fail(
                f"forward: alpha={alpha}, beta={beta}/4, gamma={gamma}"
                f" maps to {image} with multiplicity {got}, expected {want}"
            )
    for (alpha, beta), gamma in checked.items():
        pre = _apply_linear(inverse, alpha)
        want = gamma - ((alpha, beta) in removed_set)
        got = factor_multiplicity(n, pre, beta)
        if got != want:
            return fail(
                f"inverse: alpha={alpha}, beta={beta}/4 needs a preimage of"
                f" multiplicity {want}, found {got} at {pre}"
            )
    return report


def check_resfe(n: int, i: int, bound: int) -> dict:
    """Scalar-cocycle functional equation swapping x_i to 1/x_i, i even."""
    if i % 2:
        raise ValueError("i must be even")
    if n % 2 == 0 and not (0 < i < n):
        raise ValueError("for n even, i must be interior")
    k = n_even_vars(n)
    u = i // 2
    mat = _identity(k)
    mat[u][u] = -1
    if n % 2:
        mat[u][(u - 1) % k] += 1
        mat[u][(u + 1) % k] += 1
    else:
        mat[u][u - 1] += 1
        mat[u][u + 1] += 1
    removed = [
        (_unit_alpha(k, u, 2), _BETA0),
        (_unit_alpha(k, u, 2), _BETA1),
    ]
    report = _check_factor_permutation(n, mat, removed, bound)
    report.update({"check": "residue_fe", "n": n, "i": i, "D": bound})
    return report


def _unit_alpha(k: int, u: int, value: int) -> tuple[int, ...]:
    out = [0] * k
    out[u] = value
    return tuple(out)


def check_neven_fe(n: int, which: str, bound: int) -> dict:
    """Extra residue functional equations for n even (cycle-squared / edge).

    The paper's n = 2 and n = 4 variants differ from the generic form and
    are not spelled out; those cases report an unverified-special-case
    status instead of a pass.
    """
    if n % 2:
        raise ValueError("n must be even")
    report = {"check": f"neven_fe_{which}", "n": n, "D": bound}
    if n <= 4:
        report["status"] = "unverified special case"
        return report
    k = n // 2 + 1
    if which == "cycle-squared":
        mat = [[0] * k for _ in range(k)]
        # column u holds the x-exponents of the u-th substituted argument
        col0 = [2] * k
        col0[0] = 3
        col0[1] = 3
        for r in range(k):
            mat[r][0] = col0[r]
        for u in range(1, k - 2):
            mat[u + 1][u] = 1
        mat[0][k - 2] = 1
        mat[k - 1][k - 2] = 1
        collast = [-2] * k
        collast[0] = -3
        for r in range(k):
            mat[r][k - 1] = collast[r]
        removed = []
        ones = tuple([2] * k)
        for m in (0, 1):
            for u in range(k - 1):
                alpha = tuple(
                    2 * m + (2 if t <= u else 0) for t in range(k)
                )
                removed.append((alpha, _BETA_HALF))
        alpha_m2 = tuple(4 + (2 if t == 0 else 0) for t in range(k))
        removed.append((alpha_m2, _BETA_HALF))
    elif which == "edge":
        mat = [[0] * k for _ in range(k)]
        # y_0 = 1/x_n, y_2 = x_0 x_2 x_n, middle fixed, y_{n-2} = x_0 x_{n-2} x_n,
        # y_n = 1/x_0
        mat[k - 1][0] = -1
        mat[0][1] = 1
        mat[1][1] = 1
        mat[k - 1][1] = 1
        for u in range(2, k - 2):
            mat[u][u] = 1
        mat[0][k - 2] = 1
        mat[k - 2][k - 2] = 1
        mat[k - 1][k - 2] = 1
        mat[0][k - 1] = -1
        removed = [
            (_unit_alpha(k, 0, 2), _BETA_HALF),
            (_unit_alpha(k, k - 1, 2), _BETA_HALF),
            (tuple(2 * int(t in (0, k - 1)) for t in range(k)), _BETA0),
            (tuple(2 * int(t in (0, k - 1)) for t in range(k)), _BETA1),
        ]
    else:
        raise ValueError(f"unknown transform {which!r}")
    out = _check_factor_permutation(n, mat, removed, bound)
    out.update(report)
    out.setdefault("status", "pass")
    return out


# -- flat-part reconstruction ----------------------------------------------


def reconstruct_R1(n: int, bound: int) -> dict:
    """Recover the diagonal factors from P and the off-diagonal product.

    (P * R_{0,diag}^{-1})^flat, completed under beta -> 1-beta pairing,
    must reproduce the diagonal sub-multiset of the explicit product.
    Factors are trusted up to degree bound/2 (truncation aliasing guard).
    """
    k = n_even_vars(n)
    trust = bound // 2
    fl = build_R(n, bound * k)
    r0 = fl.off_diagonal_part()
    r0_expanded = expand_factors(r0, k, bound * k)
    r0_diag = r0_expanded.diag_part()
    p_coeffs = compute_P(n, bound)
    p_series = MultiSeries(1, bound, {(a,): c for a, c in enumerate(p_coeffs)})
    b = p_series.mul(r0_diag.inverse())
    form = factorize_product_form(b)
    flat, natural, sharp = split_flat_natural_sharp(form.degree_cut(trust))
    report = {"check": "reconstruct_R1", "n": n, "D": bound, "status": "pass"}
    if n % 2 == 0 and len(natural):
        report["status"] = "fail"
        report["witness"] = f"diagonal beta=1/2 factors should not exist: {natural.items()}"
        return report
    completed = pairing_completion(flat)
    expected = FactorList(
        {
            ((alpha[0],), beta): gamma
            for (alpha, beta), gamma in fl.diagonal_part().factors.items()
            if alpha[0] <= trust
        }
    )
    if completed != expected:
        report["status"] = "fail"
        report["witness"] = (
            f"reconstructed {sorted(completed.factors.items())} vs "
            f"direct {sorted(expected.factors.items())}"
        )
    return report
