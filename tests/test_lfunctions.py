import re
import time

import numpy as np
import pytest
from test_accel import general_sums
from test_fqpoly import is_irreducible, poly

from mdslab import accel, lfunctions
from mdslab.fqpoly import Fq, field
from mdslab.lfunctions import (
    _moment_sides,
    check_l_fe,
    check_moment_cost,
    check_rh,
    divisor_count,
    l_poly,
    moment_identity_check,
)


@pytest.fixture(scope="module")
def f5():
    return field(5)


def test_l_fe_fails_on_a_perturbed_sweep(f5, monkeypatch):
    from mdslab import accel

    sweep = accel.symbol_sums_by_degree
    for g in (poly(f5, [1, 0, 0, 1]), poly(f5, [1, 0, 0, 0, 1])):
        assert check_l_fe(f5, g)["status"] == "pass"
        for d in range(len(g) - 1):
            if len(g) % 2 == 0 and 2 * d == len(g) - 2:
                continue  # the self-paired middle of an odd-degree g

            def perturbed(fq, gg, dmax, d=d):
                sums = sweep(fq, gg, dmax).copy()
                sums[d] += 5
                return sums

            monkeypatch.setattr(accel, "symbol_sums_by_degree", perturbed)
            assert check_l_fe(f5, g)["status"] == "fail", (g, d)
            monkeypatch.undo()


def test_l_poly_linear(f5):
    # deg g = 1: the L-polynomial is the constant 1
    t = poly(f5, [0, 1])
    assert l_poly(f5, t) == [1]


def test_l_poly_brute_force(f5):
    # direct double-sum comparison for a degree-3 modulus
    g = poly(f5, [1, 0, 0, 1])
    assert f5.is_squarefree(g)
    want = [
        sum(f5.residue_symbol(f, g) for f in f5.monic_enum(d)) for d in range(3)
    ]
    assert l_poly(f5, g) == want


def test_l_poly_rejects_bad_moduli(f5):
    with pytest.raises(ValueError):
        l_poly(f5, poly(f5, [1]))
    t = poly(f5, [0, 1])
    with pytest.raises(ValueError):
        l_poly(f5, f5.mul(t, t))


def test_fe_all_squarefree_up_to_deg4(f5):
    for d in range(1, 5):
        for g in f5.monic_enum(d):
            if f5.is_squarefree(g):
                report = check_l_fe(f5, g)
                assert report["status"] == "pass", report


def test_fe_other_fields():
    for q in (13, 17):
        fq = field(q)
        for g in fq.monic_enum(3):
            if fq.is_squarefree(g):
                assert check_l_fe(fq, g)["status"] == "pass"


def test_rh_small_moduli(f5):
    for d in range(1, 5):
        for g in f5.monic_enum(d):
            if f5.is_squarefree(g):
                report = check_rh(f5, g)
                assert report["status"] == "pass", report
                assert report.get("max_deviation", 0.0) <= 1e-6


def test_checks_fail_without_the_trivial_zero(f5, monkeypatch):
    # an even-degree L whose value at x = 1 is 2, not 0
    monkeypatch.setattr(lfunctions, "l_poly", lambda fq, g: [1, 1])
    g = poly(f5, [1, 0, 1])
    for check in (check_l_fe, check_rh):
        assert check(f5, g) == {"status": "fail", "witness": "missing trivial zero at x = 1"}


def test_divisor_count(f5):
    t = poly(f5, [0, 1])
    assert divisor_count(f5, t) == 2
    assert divisor_count(f5, f5.mul(t, t)) == 3
    assert divisor_count(f5, f5.mul(t, (1, 1))) == 4
    assert divisor_count(f5, (1,)) == 1


def test_moment_identity_small(f5):
    report = moment_identity_check(f5, 2)
    assert report["status"] == "pass", report


def test_moment_identity_other_field():
    report = moment_identity_check(field(13), 1)
    assert report["status"] == "pass", report


def brute_moment_sides(fq, dmax):
    # the oracle: one general-modulus sweep per modulus, f_1 f_3
    # multiplied out for each pair (route A) and each f on its own (route B)
    shape = (dmax + 1,) * 3
    side_a = np.zeros(shape, dtype=np.int64)
    for d1 in range(dmax + 1):
        for f1 in fq.monic_enum(d1):
            for d3 in range(dmax + 1 - d1):
                for f3 in fq.monic_enum(d3):
                    sums = np.array(general_sums(fq, fq.factor(fq.mul(f1, f3))[0], dmax))
                    side_a[d1 + d3] += np.outer(sums, sums)
    side_b = np.zeros(shape, dtype=np.int64)
    for d in range(dmax + 1):
        for f in fq.monic_enum(d):
            sums = np.array(general_sums(fq, fq.factor(f)[0], dmax))
            side_b[d] += divisor_count(fq, f) * np.outer(sums, sums)
    return side_a, side_b


def full_moment_sides(fq, dmax):
    # the enumeration route with no orbits: the rows of every monic g of
    # each degree, every g as f_1 and as route B's modulus, weight 1
    q = fq.q
    blocks = [slice(q**b, 2 * q**b) for b in range(dmax + 1)]
    side_a = np.zeros((dmax + 1,) * 3, dtype=np.int64)
    side_b = np.zeros_like(side_a)
    rows_of = []
    for d in range(dmax + 1):
        gs = list(fq.monic_enum(d))
        rows = accel.symbol_rows(fq, gs, dmax)
        rows_of.append(rows)
        for e in range(min(d, dmax - d) + 1):
            gram = np.stack([
                np.einsum("ik,jk->ij", rows[:, b], rows_of[e][:, b], dtype=np.int64).ravel()
                for b in blocks
            ])
            side_a[d + e] += (1 if e == d else 2) * (gram @ gram.T)
        sigma = np.array([divisor_count(fq, g) for g in gs], dtype=np.int64)
        sums = np.stack([rows[:, b].sum(axis=1, dtype=np.int64) for b in blocks], axis=1)
        side_b[d] += sums.T @ (sigma[:, None] * sums)
    return side_a, side_b


@pytest.mark.parametrize("q, dmax", [(5, 1), (5, 2), (5, 3), (13, 1), (13, 2)])
def test_moment_sides_match_per_pair_oracle(q, dmax):
    fq = field(q)
    side_a, side_b = _moment_sides(fq, dmax)
    want_a, want_b = brute_moment_sides(fq, dmax)
    assert np.array_equal(side_a, want_a)
    assert np.array_equal(side_b, want_b)


@pytest.mark.parametrize("q, dmax", [(5, d) for d in range(6)] + [(13, d) for d in range(4)])
def test_orbit_moment_sides_match_full_enumeration(q, dmax):
    # each side on its own: a wrong orbit weight that scales both sides
    # alike keeps the identity but not these sides (dmax = 0 has no pivot)
    fq = field(q)
    side_a, side_b = _moment_sides(fq, dmax)
    want_a, want_b = full_moment_sides(fq, dmax)
    assert np.array_equal(side_a, want_a)
    assert np.array_equal(side_b, want_b)


@pytest.mark.parametrize("q, dmax, chunk", [(5, 3, 7), (13, 2, 10), (5, 5, 40)])
def test_streamed_moment_sides_match_per_pair_oracle(q, dmax, chunk, monkeypatch):
    # chunks of a few rows, the last one short, for every degree above dmax/2
    # (at q=5, dmax=5 the pivot-free quintics and the quartic representatives)
    monkeypatch.setattr(lfunctions, "ROW_CHUNK_BYTES", chunk * 2 * q**dmax)
    fq = field(q)
    side_a, side_b = _moment_sides(fq, dmax)
    want = brute_moment_sides if dmax < 5 else full_moment_sides
    want_a, want_b = want(fq, dmax)
    assert np.array_equal(side_a, want_a)
    assert np.array_equal(side_b, want_b)


WITNESS = re.compile(r"index \(\d+, \d+, \d+\): -?\d+ != -?\d+")


def test_moment_identity_fails_on_a_flipped_symbol(f5, monkeypatch):
    assert moment_identity_check(f5, 2) == {"status": "pass"}
    rows_of = accel.symbol_rows
    g = poly(f5, [1, 0, 1])  # (t + 2)(t + 3), the representative of its orbit
    flips = []

    def flipped(fq, gs, dmax):
        rows = rows_of(fq, gs, dmax)
        if g in gs:
            # f = t + 1 sits at 5 + 1. Route B weighs g's row by its orbit
            # size times sigma_0(g) = 4, route A reads it for two of the
            # four factorisations only
            k = list(gs).index(g)
            assert rows[k, 6] != 0
            rows[k, 6] *= -1
            flips.append(dmax)
        return rows

    monkeypatch.setattr(accel, "symbol_rows", flipped)
    report = moment_identity_check(f5, 2)
    assert flips == [2]
    assert report["status"] == "fail" and WITNESS.fullmatch(report["witness"]), report


def test_moment_identity_fails_on_a_wrong_divisor_count(f5, monkeypatch):
    count = lfunctions.divisor_count
    bumped = poly(f5, [1, 0, 1])

    def off_by_one(fq, f):
        return count(fq, f) + (tuple(f) == bumped)

    monkeypatch.setattr(lfunctions, "divisor_count", off_by_one)
    report = moment_identity_check(f5, 2)
    assert report["status"] == "fail" and WITNESS.fullmatch(report["witness"]), report


def first_irreducible(fq, candidates):
    # the trial-division oracle, not _primes_of_degree: at q=29 a sieve to
    # degree 5 needs about 3.3e8 bytes and is refused, while the oracle
    # divides by the 435 primes of degree <= 2
    return next(f for f in candidates if is_irreducible(fq, f))


def degree5_modulus(fq, shape):
    if shape == "five linear primes":
        g = (1,)
        for a in range(1, 6):
            g = fq.mul(g, (a, 1))
        return g
    quad = first_irreducible(fq, fq.monic_enum(2))
    cubic = first_irreducible(fq, fq.monic_enum(3))
    return fq.mul(quad, cubic)


@pytest.mark.parametrize("shape", ["five linear primes", "quadratic x cubic"])
def test_l_fe_q29_degree5(shape):
    # a private context: its 2 * 29^5-entry rows are freed after the test
    fq = Fq(29)
    g = degree5_modulus(fq, shape)
    start = time.perf_counter()
    report = check_l_fe(fq, g)
    assert time.perf_counter() - start < 2
    assert report["status"] == "pass", report


def test_l_fe_q29_irreducible_quintic():
    # the prime's own tables have 29^5 entries
    fq = Fq(29)
    g = first_irreducible(fq, ((c, 1, 0, 0, 0, 1) for c in range(1, 29)))
    assert check_l_fe(fq, g)["status"] == "pass"


def test_oversized_l_poly_is_refused():
    fq = field(29)
    g = (1,)
    for a in range(1, 8):
        g = fq.mul(g, (a, 1))
    with pytest.raises(ValueError, match="bytes"):
        l_poly(fq, g)


def test_moment_cost_limit():
    # the orbit route's counts at the largest admitted dmax of each q pass:
    # q=5 dmax=6 (7.1e8), q=13 dmax=4 (2.9e8), q=17 dmax=3 and q=29 dmax=3
    for q, dmax in [(5, 6), (13, 4), (17, 3), (29, 3)]:
        check_moment_cost(q, dmax)
    with pytest.raises(ValueError, match=r"evaluates 1\.7e\+10 "):
        check_moment_cost(5, 7)
    with pytest.raises(ValueError, match=r"evaluates 1\.9e\+09 "):
        moment_identity_check(field(17), 4)
