import itertools
from fractions import Fraction

import pytest
from test_fqpoly import squarefree_part

from mdslab import cli, reducer, residue
from mdslab.fqpoly import field
from mdslab.globalweights import H_global
from mdslab.qlaurent import QL_ONE
from mdslab.reducer import compute_P, tuples_with_sum_at_most
from mdslab.residue import (
    build_R,
    check_euler_substitution,
    check_factor_pairing,
    check_neven_fe,
    check_pipeline_consistency,
    check_resfe,
    n_even_vars,
    reconstruct_R1,
    residue_coeff_H_route,
    residue_coeff_engine_scaled,
    residue_index,
    run_pipeline,
)


def test_n_even_vars():
    assert [n_even_vars(n) for n in (2, 3, 4, 5, 6)] == [2, 2, 3, 3, 4]


def test_build_R_smallest_factors_n3():
    fl = build_R(3, 4)
    # odd diagonal (1,1) at beta 0 and 1, plus first windows
    assert fl.factors[((1, 1), 0)] == 1
    assert fl.factors[((1, 1), 4)] == 1
    assert fl.factors[((2, 0), 0)] == 1
    assert fl.factors[((0, 2), 4)] == 1
    # full cyclic window of length k merges into multiplicity k
    assert fl.factors[((2, 2), 0)] == 2


def test_build_R_smallest_factors_n2():
    fl = build_R(2, 4)
    assert fl.factors[((2, 2), 0)] == 1  # diagonal, gamma = n/2
    assert fl.factors[((2, 2), 4)] == 1
    assert fl.factors[((2, 0), 2)] == 1  # prefix at beta = 1/2
    assert fl.factors[((0, 2), 2)] == 1  # suffix at beta = 1/2
    # no interior windows exist for k = 2
    assert ((2, 0), 0) not in fl.factors


def test_factor_multiplicity_matches_window():
    # the product built to degree sum(alpha) already holds every factor at alpha
    for n in (2, 3, 4):
        fl = build_R(n, 8)
        for (alpha, beta), gamma in fl.items():
            assert build_R(n, sum(alpha)).factors[(alpha, beta)] == gamma
    assert ((-2, 0), 0) not in build_R(3, 8).factors
    assert ((0, 0), 0) not in build_R(3, 8).factors


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
        reconstruct_R1(3, 6, short.p)


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
    assert calls == [(3, 8)]
    assert len(residue._PIPELINE_CACHE) == 1


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_factor_pairing(n):
    report = check_factor_pairing(n, 12)
    assert report["status"] == "pass", report


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
        lhs = residue_coeff_H_route(fq, n, avec, seed)
        rhs = residue_coeff_engine_scaled(fq, n, avec, seed)
        assert lhs == rhs, (avec, lhs, rhs)


def brute_h_route(fq, n, avec, seed):
    # the oracle for the m s_j^2 enumeration: every monic tuple of degrees
    # avec, kept when the squarefree parts agree
    total = 0
    for fs in itertools.product(*(fq.monic_enum(a) for a in avec)):
        if len({squarefree_part(fq, f) for f in fs}) > 1:
            continue
        total += H_global(fq, tuple(residue._layout(n, fs, fq.mul)), seed)
    return Fraction(total)


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


def admissible_positions(n):
    return range(0, n + 1, 2) if n % 2 else range(2, n, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_resfe(n):
    for i in admissible_positions(n):
        report = check_resfe(n, i, 10)
        assert report["status"] == "pass", report


def test_resfe_rejects_bad_positions():
    with pytest.raises(ValueError):
        check_resfe(3, 1, 6)
    with pytest.raises(ValueError):
        check_resfe(4, 0, 6)
    # i = -2 would read row -1, i = 6 would run past the k = 2 rows
    for i in (-2, 6):
        with pytest.raises(ValueError):
            check_resfe(3, i, 6)


def test_neven_fe_n6():
    for which in ("cycle-squared", "edge"):
        report = check_neven_fe(6, which, 10)
        assert report["status"] == "pass", report


def test_neven_fe_special_cases():
    for n in (2, 4):
        for which in ("cycle-squared", "edge"):
            assert check_neven_fe(n, which, 8)["status"] == "unverified special case"
    with pytest.raises(ValueError):
        check_neven_fe(3, "edge", 8)
    with pytest.raises(ValueError):
        check_neven_fe(6, "nope", 8)
    with pytest.raises(ValueError):
        check_neven_fe(4, "nope", 6)


def captured_permutations(monkeypatch, n, bound):
    """The (n, matrix, removed, bound) that each residue FE of n checks."""
    calls = []
    monkeypatch.setattr(
        residue, "_check_factor_permutation", lambda *args: calls.append(args) or {}
    )
    for i in admissible_positions(n):
        check_resfe(n, i, bound)
    if n % 2 == 0:
        for which in residue.NEVEN_TRANSFORMS:
            check_neven_fe(n, which, bound)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_factor_permutation_fails_when_perturbed(monkeypatch, n):
    check = residue._check_factor_permutation
    calls = captured_permutations(monkeypatch, n, 8)
    assert calls
    for _, mat, removed, bound in calls:
        assert check(n, mat, removed, bound)["status"] == "pass"
        # every removed factor is needed: dropping any one of bounded
        # degree breaks the identity
        for j, (alpha, _) in enumerate(removed):
            if sum(alpha) <= bound:
                fewer = removed[:j] + removed[j + 1 :]
                assert check(n, mat, fewer, bound)["status"] == "fail", (mat, j)
        identity = [[int(r == c) for c in range(len(mat))] for r in range(len(mat))]
        assert check(n, identity, removed, bound)["status"] == "fail"
        assert check(n, mat, removed + removed[:1], bound)["status"] == "fail"


def test_invert_unimodular_rejects_other_matrices():
    assert residue._invert_unimodular([[1, 1], [0, 1]]) == [[1, -1], [0, 1]]
    # singular, then invertible over Q but not over Z
    for matrix in ([[1, 2], [2, 4]], [[2, 0], [0, 1]]):
        with pytest.raises(ValueError, match="not unimodular"):
            residue._invert_unimodular(matrix)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reconstruct_R1(n):
    report = reconstruct_R1(n, 6, run_pipeline(n, 6).p)
    assert report["status"] == "pass", report
