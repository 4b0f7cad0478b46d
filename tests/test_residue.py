import ast
import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import replace

import pytest
import sympy
from test_fqpoly import squarefree_part

from mdslab import cli, partitions, reducer, residue, series
from mdslab.fqpoly import field
from mdslab.globalweights import H_global
from mdslab.qlaurent import QL_ONE, QLaurent
from mdslab.reducer import compute_P, reduce_coeff, tuples_with_sum_at_most
from mdslab.residue import (
    build_R,
    check_euler_substitution,
    check_factor_pairing,
    check_fe,
    check_pipeline_consistency,
    fe_generators,
    h_route_exponent,
    n_even_vars,
    reconstruct_R1,
    residue_coeff_H_route,
    residue_index,
    run_pipeline,
)
from mdslab.series import MultiSeries, expand_diagonal, expand_factors


def test_n_even_vars():
    assert [n_even_vars(n) for n in (2, 3, 4, 5, 6)] == [2, 2, 3, 3, 4]


def test_build_R_smallest_factors_n3():
    fl = build_R(3, 4)
    # odd diagonal (1,1) at beta 0 and 1, plus first windows
    assert fl[((1, 1), 0)] == 1
    assert fl[((1, 1), 4)] == 1
    assert fl[((2, 0), 0)] == 1
    assert fl[((0, 2), 4)] == 1
    # full cyclic window of length k merges into multiplicity k
    assert fl[((2, 2), 0)] == 2


def test_build_R_smallest_factors_n2():
    fl = build_R(2, 4)
    assert fl[((2, 2), 0)] == 1  # diagonal, gamma = n/2
    assert fl[((2, 2), 4)] == 1
    assert fl[((2, 0), 2)] == 1  # prefix at beta = 1/2
    assert fl[((0, 2), 2)] == 1  # suffix at beta = 1/2
    # no interior windows exist for k = 2
    assert ((2, 0), 0) not in fl


# sha256 of repr(sorted(build_R(n, 24).items())), pinned from the
# per-parity loops that built the product before the family list
BUILD_R_DIGESTS = {
    2: "d5b53b9e8c4ae4cc1c80598e2fb212c40d6afbf0a9ba261c49daf50dbb3eed67",
    3: "ef8e87dc62f0a83e04c7794d5f91c086dcae03bc2cc0ad2b289f929ecf8f4ab4",
    4: "b93619f8cc594c6c983e0824660d98cef618f34e53a1a47a6b1ad26013559d70",
    5: "d68578e7a333c31ddb647711a618433169ac46e907671f9adf75881505596684",
    6: "ae753208c6d97ac87fcab2183c18630f68afcfd0c9ca3c0d2fc7a41855a45676",
    7: "e551fc9ea780489ba6629c51dcc06a85c032b55b61e532616f230755efbf83e6",
    8: "3daef7f927c25dac0a9e2ffef2d567051c563a74c5766db13a785c1965837d90",
    9: "244406c5a8e6fa558d28409261088aea7b1b00acdcac73f555ed3bf618becedd",
    10: "86670f681c48dd72b00ddd3e26196f55b6943ebcb4882d58807df0d3944a311b",
}


@pytest.mark.parametrize("n", sorted(BUILD_R_DIGESTS))
def test_build_R_matches_pinned_tables(n):
    table = repr(sorted(build_R(n, 24).items())).encode()
    assert hashlib.sha256(table).hexdigest() == BUILD_R_DIGESTS[n]


def test_factor_multiplicity_matches_window():
    # the product built to degree sum(alpha) already holds every factor at alpha
    for n in (2, 3, 4):
        fl = build_R(n, 8)
        for (alpha, beta), gamma in fl.items():
            assert build_R(n, sum(alpha))[(alpha, beta)] == gamma
    assert ((-2, 0), 0) not in build_R(3, 8)
    assert ((0, 0), 0) not in build_R(3, 8)


def test_pipeline_seed_values():
    # n = 2: even series with c_2 = 3 q^4 (half-integer powers of q)
    seed2 = run_pipeline(2, 4).seed
    assert [v.serialize() for v in seed2.values[:4]] == ["0:1", "", "16:3", ""]
    # n = 3: c_1 = q^3, integer powers throughout
    seed3 = run_pipeline(3, 3).seed
    assert seed3.values[0] == QL_ONE
    assert seed3.values[1].serialize() == "12:1"
    assert seed3.values[2].serialize() == "20:4;24:3"


def test_pipeline_cache_identity():
    a = run_pipeline(3, 4)
    b = run_pipeline(3, 4)
    assert a is b


# One pipeline per run serves every smaller degree: the seed and P of a
# smaller D are prefixes of those of a larger one.
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_smaller_pipeline_is_a_prefix(n):
    big = run_pipeline(n, 8)
    assert big.p == compute_P(n, 8)
    for D in (4, 6):
        assert run_pipeline(n, D).seed.values == big.seed.values[: D + 1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_smaller_P_is_a_prefix(n):
    big = compute_P(n, 8)
    for D in (3, 5, 6):
        assert compute_P(n, D) == big[: D + 1]


def test_short_seed_or_P_is_refused():
    short = run_pipeline(3, 4)
    with pytest.raises(ValueError, match="seed holds diagonals up to 4"):
        check_pipeline_consistency(3, 6, short.seed)
    with pytest.raises(ValueError, match="P holds coefficients up to 4"):
        reconstruct_R1(3, 6, short)


def test_verify_derives_one_pipeline_and_one_P(tmp_path, monkeypatch):
    calls = []
    real = reducer.compute_P

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reducer, "compute_P", counting)
    monkeypatch.setattr(residue, "compute_P", counting)
    monkeypatch.setattr(residue, "_PIPELINE_CACHE", {})
    argv = ["verify", "--n", "3", "--q", "5", "--suite", "all", "--bound", "4", "--trunc", "6"]
    assert cli.main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert calls == [(3, 6)]
    assert len(residue._PIPELINE_CACHE) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "3", "--q", "5", "--suite", "all", "--bound", "4", "--trunc", "6"],
        ["--n", "6", "--q", "5", "--suite", "residue", "--bound", "6", "--trunc", "6"],
    ],
    ids=["verify-n3", "residue-n6"],
)
def test_verify_expands_the_diagonal_once(tmp_path, monkeypatch, argv):
    calls = []
    real = series.expand_diagonal

    def counting(fl, nvars, max_degree):
        calls.append((nvars, max_degree))
        return real(fl, nvars, max_degree)

    for mod in (series, residue, partitions):
        if hasattr(mod, "expand_diagonal"):
            monkeypatch.setattr(mod, "expand_diagonal", counting)
    monkeypatch.setattr(residue, "_PIPELINE_CACHE", {})
    assert cli.main(["verify", *argv, "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("n,bound", [(2, 3), (5, 0), (4, 6)])
def test_coeffs_builds_one_pipeline_to_its_bound(tmp_path, monkeypatch, n, bound):
    calls = []
    real = residue.run_pipeline

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(residue, "run_pipeline", counting)
    argv = ["coeffs", "--n", str(n), "--bound", str(bound), "--out", str(tmp_path / "c.csv")]
    assert cli.main(argv) == 0
    assert calls == [(n, bound)]


# The pipeline is built to the report's D = trunc alone; these are the runs
# that read it closest to that degree.
TIGHT_RUNS = [
    (n, ["--suite", "all", "--bound", str(b), "--trunc", str(b)])
    for n in range(2, 7)
    for b in range(5)
] + [(n, ["--suite", "fe", "--bound", "0", "--trunc", "3"]) for n in (2, 3)]


@pytest.mark.parametrize("n,argv", TIGHT_RUNS)
def test_pipeline_to_trunc_serves_every_check(tmp_path, n, argv):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--n", str(n), *argv, "--out", str(out)]) == 0
    for check in json.loads(out.read_text())["checks"]:
        witness = check.get("witness", "")
        assert "SeedExhausted" not in witness and "P holds" not in witness, check


def test_residue_index_shapes():
    assert residue_index(3, (1, 2)) == (1, 3, 2, 3)
    assert residue_index(5, (1, 0, 2)) == (1, 1, 0, 2, 2, 3)
    assert residue_index(2, (1, 2)) == (1, 3, 2)
    assert residue_index(4, (1, 0, 2)) == (1, 1, 0, 2, 2)
    with pytest.raises(ValueError):
        residue_index(3, (1, 2, 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pipeline_consistency(n):
    report = check_pipeline_consistency(n, 6, run_pipeline(n, 6).seed)
    assert report["status"] == "pass", report


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_factor_pairing(n):
    report = check_factor_pairing(n)
    assert report["status"] == "pass", report


def test_pairing_fails_without_a_partner_family(monkeypatch):
    for n in (2, 3, 6, 7):
        fams = residue.families(n)
        for key in fams:
            fewer = {f: g for f, g in fams.items() if f != key}
            if key[1] != 2:  # a beta = 1/2 family is its own partner
                monkeypatch.setattr(residue, "families", lambda n, fewer=fewer: fewer)
                assert check_factor_pairing(n)["status"] == "fail", (n, key)
        monkeypatch.undo()


@pytest.mark.parametrize("n,p_deg", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_euler_substitution(n, p_deg):
    seed = run_pipeline(n, 12).seed
    report = check_euler_substitution(n, p_deg, 4, seed)
    assert report["status"] == "pass", report


@pytest.mark.parametrize("n", [2, 3])
def test_h_route_matches_engine(n):
    fq = field(5)
    seed = run_pipeline(n, 12).seed
    k = n_even_vars(n)
    for avec in tuples_with_sum_at_most(k, 3):
        lhs = residue_coeff_H_route(fq, n, avec, seed) * 5 ** h_route_exponent(n, avec)
        rhs = reduce_coeff(residue_index(n, avec), seed).eval_int(5)
        assert lhs == rhs, (avec, lhs, rhs)


def brute_h_route(fq, n, avec, seed):
    # the oracle for the m s_j^2 enumeration: every monic tuple of degrees
    # avec, kept when the squarefree parts agree
    total = 0
    for fs in itertools.product(*(fq.monic_enum(a) for a in avec)):
        if len({squarefree_part(fq, f) for f in fs}) > 1:
            continue
        total += H_global(fq, tuple(residue._layout(n, fs, fq.mul)), seed)
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_h_route_matches_brute_enumeration(n):
    fq = field(5)
    seed = run_pipeline(n, 8).seed
    for avec in tuples_with_sum_at_most(n_even_vars(n), 3):
        want = brute_h_route(fq, n, avec, seed)
        assert residue_coeff_H_route(fq, n, avec, seed) == want, avec


def test_h_route_budget_guard():
    seed = run_pipeline(3, 8).seed
    with pytest.raises(ValueError, match="budget"):
        residue_coeff_H_route(field(29), 3, (8, 8), seed)


def generator_pairs(n):
    """The (matrix, removed) of every residue FE of n that the table spells out."""
    return [pair for pair in fe_generators(n).values() if pair is not None]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_resfe(n):
    for i in fe_generators(n):
        if isinstance(i, int):
            report = check_fe(n, i)
            assert report["status"] == "pass", report


def test_fe_generators_keys():
    # the swap positions in report order, then the n-even transforms
    assert list(fe_generators(3)) == [0, 2]
    assert list(fe_generators(5)) == [0, 2, 4]
    assert list(fe_generators(2)) == ["cycle-squared", "edge"]
    assert list(fe_generators(8)) == [2, 4, 6, "cycle-squared", "edge"]


def test_resfe_rejects_bad_positions():
    with pytest.raises(ValueError):
        check_fe(3, 1)
    with pytest.raises(ValueError):
        check_fe(4, 0)
    # i = -2 would read row -1, i = 6 would run past the k = 2 rows
    for i in (-2, 6):
        with pytest.raises(ValueError):
            check_fe(3, i)


def test_neven_fe_n6():
    for which in ("cycle-squared", "edge"):
        report = check_fe(6, which)
        assert report["status"] == "pass", report


def test_neven_fe_special_cases():
    for n in (2, 4):
        for which in ("cycle-squared", "edge"):
            assert fe_generators(n)[which] is None
            assert check_fe(n, which)["status"] == "unverified special case"
    with pytest.raises(ValueError):
        check_fe(3, "edge")
    with pytest.raises(ValueError):
        check_fe(6, "nope")
    with pytest.raises(ValueError):
        check_fe(4, "nope")


def bounded_permutation_check(n, matrix, removed, bound):
    """Oracle for the cocycle FEs: the multiset identity M(F) = G read as
    F(a) = G(Ma), and as F(M^-1 a) = G(a) in the other direction, at every
    factor of degree at most bound, every removed factor and every preimage
    of a negated one. G is F less the removed factors plus their negations.
    All multiplicities come from one product built to the largest degree
    read; a vector with a negative entry is simply absent from it. A removed
    factor above the bound, once dropped, is never read.
    """
    inverse = sympy.Matrix(matrix).inv()
    assert all(x.is_integer for x in inverse), "substitution matrix is not unimodular"
    inverse = [[int(x) for x in row] for row in inverse.tolist()]
    traded = Counter(removed)
    traded.subtract((tuple(-a for a in alpha), beta) for alpha, beta in removed)
    points = dict.fromkeys(build_R(n, bound))
    for alpha, beta in removed:
        points[(alpha, beta)] = None
        points[(residue._apply_linear(inverse, tuple(-a for a in alpha)), beta)] = None
    rows = [
        (alpha, residue._apply_linear(matrix, alpha), residue._apply_linear(inverse, alpha), beta)
        for alpha, beta in points
    ]
    top = max((sum(v) for row in rows for v in row[:3] if min(v) >= 0), default=0)
    F = build_R(n, top)
    for alpha, image, pre, beta in rows:
        if F.get((alpha, beta), 0) != F.get((image, beta), 0) - traded[(image, beta)]:
            return "fail"
        if F.get((pre, beta), 0) != F.get((alpha, beta), 0) - traded[(alpha, beta)]:
            return "fail"
    return "pass"


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
def test_certificate_matches_bounded_oracle(n):
    check = residue._check_factor_permutation
    pairs = generator_pairs(n)
    assert pairs
    for bound in (6, 10, 14):
        for mat, removed in pairs:
            assert check(n, mat, removed)["status"] == "pass"
            assert bounded_permutation_check(n, mat, removed, bound) == "pass"
            for j, (alpha, _) in enumerate(removed):
                if sum(alpha) <= bound:
                    fewer = removed[:j] + removed[j + 1 :]
                    assert check(n, mat, fewer)["status"] == "fail", (mat, j)
                    assert bounded_permutation_check(n, mat, fewer, bound) == "fail", (mat, j)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_factor_permutation_fails_when_perturbed(n):
    check = residue._check_factor_permutation
    pairs = generator_pairs(n)
    assert pairs
    for mat, removed in pairs:
        assert check(n, mat, removed)["status"] == "pass"
        # every removed factor is needed, whatever its degree
        for j in range(len(removed)):
            fewer = removed[:j] + removed[j + 1 :]
            assert check(n, mat, fewer)["status"] == "fail", (mat, j)
        identity = [[int(r == c) for c in range(len(mat))] for r in range(len(mat))]
        assert check(n, identity, removed)["status"] == "fail"
        assert check(n, mat, removed + removed[:1])["status"] == "fail"


def test_certificate_sees_a_removed_factor_above_the_bound():
    # n=6 cycle-squared trades ((4,2,2,2), beta=1/2), of degree 10: the
    # oracle at D=6 never reads it, the certificate fails without it
    dropped = ((4, 2, 2, 2), 2)
    mat, removed = fe_generators(6)["cycle-squared"]
    assert dropped in removed
    fewer = [f for f in removed if f != dropped]
    assert len(fewer) == len(removed) - 1
    assert bounded_permutation_check(6, mat, fewer, 6) == "pass"
    assert bounded_permutation_check(6, mat, fewer, 10) == "fail"
    assert residue._check_factor_permutation(6, mat, fewer)["status"] == "fail"


def test_factor_permutation_requires_fixed_delta():
    # unimodular, but (1, 1) goes to (2, 1)
    with pytest.raises(ValueError, match="does not fix delta"):
        residue._check_factor_permutation(3, [[1, 1], [0, 1]], [])
    with pytest.raises(ValueError, match="does not fix delta"):
        residue._check_factor_permutation(3, [[2, 0], [0, 1]], [((2, 0), 0)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reconstruct_R1(n):
    report = reconstruct_R1(n, 6, run_pipeline(n, 6))
    assert report["status"] == "pass", report


@pytest.mark.parametrize("n", range(2, 10))
def test_pipeline_diagonal_over_the_diagonal_factors_is_the_off_diagonal_product(n):
    # each diagonal factor is a power of x_0 x_2 ... alone, so R_diag is
    # the off-diagonal product's diagonal times their one-variable product
    k = n_even_vars(n)
    r_diag = run_pipeline(n, 6).r_diag
    for D in (4, 6):
        fl = build_R(n, D * k)
        off = {(alpha, beta): gamma for (alpha, beta), gamma in fl.items() if len(set(alpha)) > 1}
        negated = {
            ((alpha[0],), beta): -gamma for (alpha, beta), gamma in fl.items() if len(set(alpha)) == 1
        }
        got = MultiSeries(1, D, r_diag.terms).mul(expand_factors(negated, 1, D))
        assert got == expand_diagonal(off, k, D)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("bound", [4, 6])
def test_reconstruct_R1_reads_a_longer_pipeline_to_its_bound(n, bound):
    big, exact = run_pipeline(n, 8), run_pipeline(n, bound)
    assert reconstruct_R1(n, bound, big) == reconstruct_R1(n, bound, exact) == {"status": "pass"}
    # a bumped p_2 fails alike from either pipeline
    bumped = [c + QL_ONE if a == 2 else c for a, c in enumerate(big.p)]
    report = reconstruct_R1(n, bound, replace(big, p=bumped))
    assert report["status"] == "fail"
    assert reconstruct_R1(n, bound, replace(exact, p=bumped[: bound + 1])) == report


def times_diagonal_factor(pipe, beta):
    """The pipeline with P times (1 - q^beta x)^(-1): the product form that
    reconstruct_R1 reads gains exactly this factor."""
    top = len(pipe.p) - 1
    p = MultiSeries(1, top, {(a,): c for a, c in enumerate(pipe.p)})
    p = p.mul(expand_factors({((1,), beta): 1}, 1, top))
    return replace(pipe, p=[p.coeff((a,)) for a in range(top + 1)])


@pytest.mark.parametrize(
    "n, report",
    [
        (2, {"status": "fail", "witness": "diagonal beta=1/2 factors should not exist: [(((1,), 2), 1)]"}),
        (3, {"status": "pass"}),  # n odd reads no beta = 1/2 factor
    ],
)
def test_reconstruct_R1_fails_on_a_diagonal_beta_half_factor_for_n_even(n, report):
    assert reconstruct_R1(n, 6, times_diagonal_factor(run_pipeline(n, 6), 2)) == report


@pytest.mark.parametrize("n", [2, 3])
def test_reconstruct_R1_completes_each_flat_factor_with_its_partner(n):
    # a flat factor at beta = -1 is completed by its partner at beta = 2
    report = reconstruct_R1(n, 6, times_diagonal_factor(run_pipeline(n, 6), -4))
    assert report["status"] == "fail"
    got, direct = report["witness"].removeprefix("reconstructed ").split(" vs direct ")
    want = dict(ast.literal_eval(direct)) | {((1,), -4): 1, ((1,), 8): 1}
    assert ast.literal_eval(got) == sorted(want.items())


@pytest.mark.parametrize("n", [2, 3])
def test_reconstruct_R1_refuses_beta_strictly_between_0_and_1(n):
    pipe = times_diagonal_factor(run_pipeline(n, 6), 1)
    with pytest.raises(ValueError, match=r"beta strictly between 0 and 1: \[\(\(1,\), 1, 1\)\]"):
        reconstruct_R1(n, 6, pipe)


def reconstruct_R1_untruncated(n, bound, pipe):
    """reconstruct_R1 as it was before it truncated to the trusted degree:
    it factorises P / R_{0,diag} to ``bound`` and drops the factors above
    bound // 2. The oracle of the truncated route."""
    trust = bound // 2
    fams = {
        ((w[0],), beta): gamma
        for (w, beta), gamma in residue.families(n).items()
        if len(set(w)) == 1
    }
    diag = series.progressions(fams, (2,), bound)
    negated = {key: -gamma for key, gamma in diag.items()}
    r0_diag = MultiSeries(1, bound, pipe.r_diag.terms).mul(expand_factors(negated, 1, bound))
    form = series.factorize_product_form(residue._p_series(pipe.p, bound).div(r0_diag))
    trusted = sorted(item for item in form.items() if sum(item[0][0]) <= trust)
    beta1, half = residue._BETA1, residue._BETA_HALF
    anomalies = [(a, b, g) for (a, b), g in trusted if 0 < b < beta1 and b != half]
    if anomalies:
        raise ValueError(f"factors with beta strictly between 0 and 1: {anomalies}")
    natural = [item for item in trusted if item[0][1] == half]
    if n % 2 == 0 and natural:
        return {
            "status": "fail",
            "witness": f"diagonal beta=1/2 factors should not exist: {natural}",
        }
    completed = {}
    for (alpha, beta), gamma in trusted:
        if beta <= 0:
            completed[(alpha, beta)] = completed[(alpha, beta1 - beta)] = gamma
    expected = {key: gamma for key, gamma in diag.items() if sum(key[0]) <= trust}
    if completed != expected:
        return {
            "status": "fail",
            "witness": f"reconstructed {sorted(completed.items())} vs "
            f"direct {sorted(expected.items())}",
        }
    return {"status": "pass"}


def outcome(fn, *args):
    """The report of fn, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("n", range(2, 9))
def test_reconstruct_R1_matches_the_untruncated_route(n):
    # the pipeline, and P times one diagonal factor: sharp (beta = 1, 2;
    # mutants that the check passes), natural (beta = 1/2), flat (beta = -1),
    # or strictly between 0 and 1 (beta = 1/4, refused)
    pipe = run_pipeline(n, 8)
    pipes = [pipe] + [times_diagonal_factor(pipe, beta) for beta in (4, 8, 2, -4, 1)]
    seen = set()
    for bound in range(4, 9):
        for p in pipes:
            want = outcome(reconstruct_R1_untruncated, n, bound, p)
            assert outcome(reconstruct_R1, n, bound, p) == want, (bound, p.p[:3])
            seen.add(want if isinstance(want, str) else want["status"])
    assert {"pass", "fail"} <= seen and any(s.startswith("ValueError") for s in seen)


def verify_residue_failures(n, tmp_path):
    """The failing checks of a small ``verify --suite residue`` run, by name."""
    out = tmp_path / f"report-{n}.json"
    argv = ["verify", "--n", str(n), "--suite", "residue", "--bound", "2", "--trunc", "2"]
    assert cli.main(argv + ["--out", str(out)]) == 1
    failed = {}
    for check in json.loads(out.read_text())["checks"]:
        if check["status"] == "fail":
            failed.setdefault(check["name"], []).append(check["witness"])
    return failed


@pytest.mark.parametrize("n", [2, 3])
def test_residue_h_route_fails_on_a_bumped_local_weight(n, tmp_path, monkeypatch):
    # local_weight_value, and through it H_global, reads reducer.local_weight;
    # the Euler substitution cannot see this bump, as H stays a polynomial
    monkeypatch.setattr(residue, "_PIPELINE_CACHE", {})
    real = reducer.local_weight
    monkeypatch.setattr(reducer, "local_weight", lambda *args: real(*args) + QL_ONE)
    witness = {2: "avec=(0, 2): 150 != 125", 3: "avec=(0, 2): 3875 != 3750"}[n]
    assert verify_residue_failures(n, tmp_path) == {"residue_h_route": [witness]}


@pytest.mark.parametrize("n", [2, 3])
def test_euler_substitution_fails_on_a_fractional_local_weight(n, tmp_path, monkeypatch):
    # the pipeline is built first; then c_t as local_weight reads it carries
    # an extra term q^((4 sum t - 1)/4), which puts q^(1/4) into H
    monkeypatch.setattr(residue, "_PIPELINE_CACHE", {})
    run_pipeline(n, 2)
    real = reducer.reduce_coeff
    monkeypatch.setattr(
        reducer, "reduce_coeff", lambda t, seed: real(t, seed) + QLaurent({4 * sum(t) - 1: 1})
    )
    zero = residue_index(n, (0,) * n_even_vars(n))
    witness = f"ValueError: local-to-global violation at {zero}: H = 1 + 1*q^(1/4)"
    assert verify_residue_failures(n, tmp_path)["euler_substitution"] == [witness] * 2


def euler_by_comparison(n, p_deg, bound, seed):
    """The Euler substitution as a comparison of the local weight with the
    substituted residue coefficient: the oracle of check_euler_substitution,
    an identity wherever ``local_weight`` returns."""
    for avec in tuples_with_sum_at_most(n_even_vars(n), bound):
        s = sum(avec)
        h = reducer.local_weight(p_deg, residue_index(n, avec), seed)
        w_quarters = 4 * s if n % 2 else 4 * s - (avec[0] + avec[-1])
        lhs = h.subst_q_power(p_deg).shift(-p_deg * w_quarters)
        rhs = residue.residue_coeff_from_c(n, avec, seed).subst_q_power(-p_deg)
        if lhs != rhs:
            witness = f"avec={avec}: local {lhs!r} vs substituted {rhs!r}"
            return {"status": "fail", "witness": witness}
    return {"status": "pass"}


def reported(check, *args):
    """A check's result as the report records it: a raised exception is a
    failure whose witness names it."""
    try:
        return check(*args)
    except Exception as exc:
        return {"status": "fail", "witness": f"{type(exc).__name__}: {exc}"}


def test_euler_substitution_matches_the_comparison_on_random_seeds():
    rng = random.Random(7)
    statuses = Counter()
    for _ in range(300):
        n, p_deg = rng.randint(2, 6), rng.choice((1, 2))
        # random quarter powers, or zero: some local weights are
        # polynomials in |p|, some not
        values = [QL_ONE]
        for a in range(1, 8):
            terms = {rng.randint(0, 8 * a): rng.randint(-3, 3) for _ in range(2)}
            values.append(QLaurent(terms if rng.random() < 0.5 else {}))
        want = reported(euler_by_comparison, n, p_deg, 3, reducer.DiagonalSeed(values))
        got = reported(check_euler_substitution, n, p_deg, 3, reducer.DiagonalSeed(values))
        assert got == want, (n, p_deg, values)
        statuses[got["status"]] += 1
    assert min(statuses["pass"], statuses["fail"]) > 50, statuses
