import itertools
import json
import random

import pytest

import numpy as np

from mdslab import accel, globalweights
from mdslab.cli import main
from mdslab.fqpoly import ONE, Fq, degree, field
from mdslab.globalweights import (
    H_global,
    _glue,
    _prime_support,
    _slice_coeffs,
    global_coeff_sum,
    l_series_H,
)
from mdslab.lfunctions import l_poly
from mdslab.reducer import local_weight_value, reduce_coeff, tuples_with_sum_at_most
from mdslab.residue import run_pipeline


def H_global_pairwise(fq, polys, seed, order=None):
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


@pytest.fixture(scope="module")
def f5():
    return field(5)


@pytest.fixture(scope="module")
def seed3():
    return run_pipeline(3, 12).seed


@pytest.fixture(scope="module")
def seed2():
    return run_pipeline(2, 12).seed


@pytest.fixture(scope="module")
def seed4():
    return run_pipeline(4, 8).seed


def test_unit_tuple(f5, seed3):
    assert H_global(f5, (ONE, ONE, ONE, ONE), seed3) == 1


def test_rejects_non_monic(f5, seed3):
    with pytest.raises(ValueError):
        H_global(f5, ((2,), ONE, ONE, ONE), seed3)


def brute_coeff_sum(fq, t, seed):
    # the oracle for the slice route: H summed over every monic tuple
    pools = [fq.monic_enum(a) for a in t]
    return sum(H_global(fq, fs, seed) for fs in itertools.product(*pools))


def test_global_sum_recovers_coefficients(f5, seed2, seed3):
    # local-to-global: summed weights equal the recurrence coefficient at q,
    # and the slice route equals the brute sum
    for n1, total, seed in ((3, 4, seed2), (4, 3, seed3)):
        for t in tuples_with_sum_at_most(n1, total):
            got = global_coeff_sum(f5, t, seed)
            assert got == reduce_coeff(t, seed).eval_fraction(5), t
            assert got == brute_coeff_sum(f5, t, seed), t


def test_global_sum_other_field(seed3):
    f13 = field(13)
    for t in [(1, 0, 1, 0), (0, 2, 0, 0), (1, 1, 1, 0)]:
        got = global_coeff_sum(f13, t, seed3)
        assert got == reduce_coeff(t, seed3).eval_fraction(13), t
        assert got == brute_coeff_sum(f13, t, seed3), t


@pytest.mark.parametrize("n, total, q", [(3, 6, 5), (3, 4, 13), (4, 5, 5)])
def test_global_sum_matches_engine_beyond_brute(n, total, q):
    # sizes the brute sum cannot reach cheaply: up to q^total tuples each
    fq = field(q)
    seed = run_pipeline(n, total + 2).seed
    for t in tuples_with_sum_at_most(n + 1, total):
        assert global_coeff_sum(fq, t, seed) == reduce_coeff(t, seed).eval_fraction(q), t


def test_local_to_global_fails_on_a_perturbed_sweep(f5, seed3, monkeypatch, tmp_path):
    # the coprime character sum off by one at a single degree d must break
    # local to global, in global_coeff_sum and in the verify check
    sweep = accel.symbol_sums_by_degree
    ts = list(tuples_with_sum_at_most(4, 3))
    want = {t: reduce_coeff(t, seed3).eval_int(5) for t in ts}
    assert all(global_coeff_sum(f5, t, seed3) == want[t] for t in ts)
    argv = ["verify", "--n", "3", "--suite", "axioms", "--bound", "3", "--trunc", "3"]

    def local_to_global_status(name):
        main(argv + ["--out", str(tmp_path / name)])
        checks = json.loads((tmp_path / name).read_text())["checks"]
        return next(c["status"] for c in checks if c["name"] == "local_to_global")

    assert local_to_global_status("clean") == "pass"
    for d in range(4):

        def perturbed(fq, g, dmax, d=d):
            sums = sweep(fq, g, dmax).copy()
            if d <= dmax:
                sums[d] += 1
            return sums

        monkeypatch.setattr(accel, "symbol_sums_by_degree", perturbed)
        assert any(global_coeff_sum(f5, t, seed3) != want[t] for t in ts), d
        assert local_to_global_status(f"bumped{d}") == "fail", d
        monkeypatch.undo()


def test_pairwise_route_and_order_independence(f5, seed3):
    rng = random.Random(7)
    polys = [f for d in (0, 1, 2) for f in f5.monic_enum(d)]
    for _ in range(60):
        fs = tuple(rng.choice(polys) for _ in range(4))
        ref = H_global(f5, fs, seed3)
        primes = sorted(_prime_support(f5, fs))
        assert H_global_pairwise(f5, fs, seed3) == ref
        for _ in range(3):
            rng.shuffle(primes)
            assert H_global_pairwise(f5, fs, seed3, order=list(primes)) == ref


def test_multiplicativity_on_coprime_squares(f5, seed2):
    # squares twist trivially, so coprime square blocks multiply cleanly
    t = f5.poly([0, 1])
    u = f5.poly([1, 1])
    t2, u2 = f5.mul(t, t), f5.mul(u, u)
    a = H_global(f5, (t2, ONE, ONE), seed2)
    b = H_global(f5, (u2, ONE, ONE), seed2)
    assert H_global(f5, (f5.mul(t2, u2), ONE, ONE), seed2) == a * b


def test_budget_guard(f5, seed3):
    with pytest.raises(ValueError, match="budget"):
        global_coeff_sum(f5, (4, 4, 4, 4), seed3)


def test_budget_prices_the_enumerated_slots(f5, seed3, monkeypatch):
    # the slot of largest degree is one slice coefficient, not enumerated:
    # (0, 0, 0, 5) costs 4 * 5^0, where the brute sum cost 4 * 5^5 = 12500
    monkeypatch.setattr(globalweights, "BUDGET", 1000)
    t = (0, 0, 0, 5)
    assert global_coeff_sum(f5, t, seed3) == reduce_coeff(t, seed3).eval_int(5)
    with pytest.raises(ValueError, match=r"^enumeration budget exceeded: 4 \* 5\^5 = 12500 > 1000$"):
        global_coeff_sum(f5, (2, 2, 1, 5), seed3)


def test_global_coeff_sum_pinned_value(f5, seed2):
    # a square-carrying index, pinned at q = 5
    assert global_coeff_sum(f5, (2, 2, 0), seed2) == 125


def test_l_series_H_fe(f5, seed3):
    t = f5.poly([0, 1])
    u = f5.poly([1, 1])
    cases = [
        ((ONE, ONE, ONE, ONE), 1),  # s = 0, even
        ((t, ONE, u, ONE), 1),  # s = 2, even
        ((t, ONE, fq_sq(f5, u), ONE), 1),  # s = 3, odd
    ]
    for fixed, i in cases:
        s = len(fixed[0]) - 1 + len(fixed[2]) - 1
        xbound = s + 1 if s % 2 == 0 else s - 1 + 1
        report = l_series_H(f5, fixed, i, max(xbound, 1), seed3)
        assert report["status"] == "pass", report


def fq_sq(fq, f):
    return fq.mul(f, f)


def test_l_series_H_xbound_guard(f5, seed3):
    t = f5.poly([0, 1])
    with pytest.raises(ValueError, match="xbound"):
        l_series_H(f5, (t, ONE, t, ONE), 1, 1, seed3)


def test_l_series_H_xbound_guard_before_work(f5, seed3, monkeypatch):
    def boom(*args):
        raise RuntimeError("swept before checking xbound")

    monkeypatch.setattr(globalweights, "H_global", boom)
    monkeypatch.setattr(accel, "symbol_sums_by_degree", boom)
    t = f5.poly([0, 1])
    with pytest.raises(ValueError, match="xbound"):
        l_series_H(f5, (t, ONE, t, ONE), 1, 1, seed3)  # s = 2 needs xbound 3
    with pytest.raises(ValueError, match="xbound"):
        l_series_H(f5, (t, ONE, fq_sq(f5, t), ONE), 1, 1, seed3)  # s = 3 needs 2


def test_l_series_H_fails_on_a_perturbed_sweep(f5, seed3, monkeypatch):
    # the coprime character sum off by one at a single swept degree d must
    # break the functional equation, for even (s = 2) and odd (s = 3)
    # slices; the self-paired middle degree of an odd slice is left out.
    # Both moduli are squarefree, so the sweep stops at deg g - 1 = s - 1.
    sweep = accel.symbol_sums_by_degree
    t, u = f5.poly([0, 1]), f5.poly([1, 1])
    for fixed in ((t, ONE, u, ONE), (t, ONE, f5.mul(u, f5.poly([2, 1])), ONE)):
        s = len(fixed[0]) + len(fixed[2]) - 2
        xbound = min_xbound(fixed, 1)
        asked = []

        def recording(fq, g, dmax):
            asked.append(dmax)
            return sweep(fq, g, dmax)

        monkeypatch.setattr(accel, "symbol_sums_by_degree", recording)
        assert l_series_H(f5, fixed, 1, xbound, seed3)["status"] == "pass"
        monkeypatch.undo()
        assert asked == [min(xbound, s - 1)], fixed
        for d in range(asked[0] + 1):
            if s % 2 and 2 * d == s - 1:
                continue

            def perturbed(fq, g, dmax, d=d):
                sums = sweep(fq, g, dmax).copy()
                sums[d] += 1
                return sums

            monkeypatch.setattr(accel, "symbol_sums_by_degree", perturbed)
            assert l_series_H(f5, fixed, 1, xbound, seed3)["status"] == "fail", (fixed, d)
            monkeypatch.undo()


def test_l_series_H_fails_on_a_nonzero_tail(f5, seed3, monkeypatch, tmp_path):
    # the degrees past a capped sweep are the zeros of complete character
    # sums; a nonzero value forced into any of them breaks the functional
    # equation, in l_series_H and in the verify check l_series_fe
    sweep = accel.symbol_sums_by_degree
    t, u = f5.poly([0, 1]), f5.poly([1, 1])
    # g = t u, swept to 1 of 3; g = t^2 u, swept to 1 of 2
    for fixed in ((t, ONE, u, ONE), (t, ONE, f5.mul(t, u), ONE)):
        xbound = min_xbound(fixed, 1)
        assert l_series_H(f5, fixed, 1, xbound, seed3)["status"] == "pass"
        for d in range(2, xbound + 1):

            def forced(fq, g, dmax, d=d):
                sums = np.zeros(d + 1, dtype=np.int64)
                sums[: dmax + 1] = sweep(fq, g, dmax)
                sums[d] = 1
                return sums

            monkeypatch.setattr(accel, "symbol_sums_by_degree", forced)
            assert l_series_H(f5, fixed, 1, xbound, seed3)["status"] == "fail", (fixed, d)
            monkeypatch.undo()

    def one_past(fq, g, dmax):
        # a value at dmax + 1: inside the tail of a capped sweep, past xbound
        # of a full one
        return np.append(sweep(fq, g, dmax), 1)

    def l_series_fe_status(name):
        out = tmp_path / name
        main(["verify", "--n", "3", "--suite", "fe", "--bound", "2", "--trunc", "2", "--out", str(out)])
        checks = json.loads(out.read_text())["checks"]
        return next(c["status"] for c in checks if c["name"] == "l_series_fe")

    assert l_series_fe_status("clean") == "pass"
    monkeypatch.setattr(accel, "symbol_sums_by_degree", one_past)
    assert l_series_fe_status("tail") == "fail"


def test_sums_memo_never_serves_filled_zeros(seed3, monkeypatch):
    # _slice_coeffs sweeps g = t (t + 1) to degree 1 only and fills degree 2
    # with the zero of a complete sum; l_poly still sweeps degree 2 itself,
    # so a wrong degree-2 symbol still trips its check that the sum vanishes
    fq = Fq(5)  # a fresh context: no sums held for g
    t, u = fq.poly([0, 1]), fq.poly([1, 1])
    g = fq.mul(t, u)
    _slice_coeffs(fq, (t, ONE, u, ONE), 1, 3, seed3)
    assert fq._char_sums[g].tolist() == [1, -1]  # degrees 0 and 1 only
    row = accel._row

    def perturbed(fq, g, dmax):
        out = row(fq, g, dmax).copy()
        if dmax >= 2:
            out[fq.q**2] += 1  # f = t^2, where (t^2 / g) = 0
        return out

    monkeypatch.setattr(accel, "_row", perturbed)
    with pytest.raises(AssertionError, match="fails to vanish at degree 2"):
        l_poly(fq, g)


def brute_slice(fq, fixed, i, xbound, seed):
    # the oracle for the coprime split: H summed over every monic f_i
    return [
        sum(H_global(fq, fixed[:i] + (f,) + fixed[i + 1 :], seed) for f in fq.monic_enum(d))
        for d in range(xbound + 1)
    ]


def min_xbound(fixed, i):
    n1 = len(fixed)
    s = len(fixed[i - 1]) + len(fixed[(i + 1) % n1]) - 2
    return s - 1 if s % 2 else s + 1


def assert_slices_match_brute(fq, cases, seed):
    for fixed, i in cases:
        xbound = min_xbound(fixed, i)
        got = _slice_coeffs(fq, fixed, i, xbound, seed)
        assert got == brute_slice(fq, fixed, i, xbound, seed), (fixed, i)


def test_l_series_H_matches_brute_on_verify_slices(f5, seed2, seed3, seed4):
    # the slices the verify suite checks: (f0, 1, f2, 1, ...) in slot 1
    pairs = [
        (f0, f2)
        for s in range(3)
        for d0 in range(s + 1)
        for f0 in f5.monic_enum(d0)
        for f2 in f5.monic_enum(s - d0)
    ]
    for n, seed in ((2, seed2), (3, seed3), (4, seed4)):
        cases = [((f0, ONE, f2) + (ONE,) * (n - 2), 1) for f0, f2 in pairs]
        assert_slices_match_brute(f5, cases, seed)


def random_cases(fq, rng, count, max_deg):
    by_deg = [list(fq.monic_enum(d)) for d in range(max_deg + 1)]
    cases = []
    for _ in range(count):
        # a degree first, so that low-degree entries (and shared primes) are common
        fixed = tuple(rng.choice(by_deg[rng.randrange(max_deg + 1)]) for _ in range(4))
        cases.append((fixed, rng.randrange(4)))
    return cases


def test_l_series_H_matches_brute_on_random_tuples(f5, seed3):
    # squares, shared primes and primes in the slot opposite i all occur
    assert_slices_match_brute(f5, random_cases(f5, random.Random(11), 120, 2), seed3)


def test_l_series_H_matches_brute_other_field(seed3):
    f13 = field(13)
    assert_slices_match_brute(f13, random_cases(f13, random.Random(5), 25, 1), seed3)


def smooth_parts(support, bound):
    """Every monic product of the given primes of degree at most bound, as
    (degree, {prime: exponent}) with the zero exponents left out."""
    out = [(0, {})]
    for p in support:
        dp = degree(p)
        step = []
        for d, exps in out:
            step.append((d, exps))
            for e in range(1, (bound - d) // dp + 1):
                step.append((d + e * dp, {**exps, p: e}))
        out = step
    return out


def smooth_part_slice(fq, fixed, i, xbound, seed):
    # the oracle for the Euler product: H glued at every S-smooth part f_s,
    # convolved with one full sweep of (f_c / g r^2), r the primes of S
    # prime to g = f_{i-1} f_{i+1}
    n1 = len(fixed)
    support = _prime_support(fq, fixed[:i] + (ONE,) + fixed[i + 1 :])
    r = ONE
    for p, vec in support.items():
        if not vec[(i - 1) % n1] and not vec[(i + 1) % n1]:
            r = fq.mul(r, p)
    g = fq.mul(fixed[(i - 1) % n1], fixed[(i + 1) % n1])
    sums = accel.symbol_sums_by_degree(fq, fq.mul(g, fq.mul(r, r)), xbound).tolist()
    coeffs = [0] * (xbound + 1)
    for e, exps in smooth_parts(support, xbound):
        glued = {
            p: vec[:i] + (exps[p],) + vec[i + 1 :] if p in exps else vec
            for p, vec in support.items()
        }
        h = _glue(fq, glued, seed)
        if h:
            for d in range(e, xbound + 1):
                coeffs[d] += h * sums[d - e]
    return coeffs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_euler_product_matches_smooth_parts_on_every_verify_slice(n, monkeypatch, tmp_path):
    # every slice that verify --suite all reaches, from l_series_fe and
    # local_to_global, against the sum over every smooth part
    slices = {}
    euler = globalweights._slice_coeffs

    def recording(fq, fixed, i, xbound, seed):
        got = euler(fq, fixed, i, xbound, seed)
        slices[fixed, i, xbound] = (fq, seed, got)
        return got

    monkeypatch.setattr(globalweights, "_slice_coeffs", recording)
    argv = ["verify", "--n", str(n), "--q", "5", "--suite", "all", "--bound", "4", "--trunc", "6"]
    assert main(argv + ["--out", str(tmp_path / "report")]) == 0
    assert len(slices) > 500
    for (fixed, i, xbound), (fq, seed, got) in slices.items():
        assert got == smooth_part_slice(fq, fixed, i, xbound, seed), (fixed, i, xbound)


@pytest.mark.parametrize("q, count, max_deg, xbound", [(5, 150, 3, 6), (13, 40, 2, 4)])
def test_euler_product_matches_smooth_parts_on_random_tuples(q, count, max_deg, xbound, seed3):
    # primes of degree >= 2, zero local weights, and sweeps capped below
    # xbound all occur
    fq = field(q)
    wide = zero = 0
    for fixed, i in random_cases(fq, random.Random(q), count, max_deg):
        want = smooth_part_slice(fq, fixed, i, xbound, seed3)
        assert _slice_coeffs(fq, fixed, i, xbound, seed3) == want, (fixed, i)
        support = _prime_support(fq, fixed[:i] + (ONE,) + fixed[i + 1 :])
        wide += any(degree(p) >= 2 for p in support)
        zero += any(
            local_weight_value(degree(p), q, vec[:i] + (e,) + vec[i + 1 :], seed3) == 0
            for p, vec in support.items()
            for e in range(xbound // degree(p) + 1)
        )
    assert wide > count // 4 and zero > count // 10, (wide, zero)


@pytest.mark.parametrize("q, max_deg", [(5, 4), (13, 3)])
def test_capped_sweep_of_a_non_square_is_the_full_sweep(q, max_deg):
    # for every monic G that is not a square, (. / G) is a nontrivial
    # character modulo rad G, so its sums vanish from deg rad G on: the
    # full sweep to deg G + 1 is the sweep to deg rad G - 1 plus zeros.
    # Two contexts, so that neither sweep is read from the other's sums.
    full_fq, capped_fq = Fq(q), Fq(q)
    checked = 0
    for d in range(1, max_deg + 1):
        for G in full_fq.monic_enum(d):
            factors = full_fq.factor(G)[0]
            if all(e % 2 == 0 for _, e in factors):
                continue
            rad = sum(degree(p) for p, _ in factors)
            full = accel.symbol_sums_by_degree(full_fq, G, d + 1).tolist()
            capped = accel.symbol_sums_by_degree(capped_fq, G, rad - 1).tolist()
            assert full == capped + [0] * (d + 2 - rad), G
            checked += 1
    assert checked > q**max_deg


def test_coprime_twist_identity(f5, seed3):
    # H(fixed with f_s f_c) = H(fixed with f_s) (f_c / f_{i-1} f_{i+1}) for
    # f_s smooth over the primes of the fixed entries and f_c coprime to
    # them; checked for every i, every fixed entries of degree <= 1, and
    # every such f_s and f_c of degree <= 2
    small = [f for d in (0, 1) for f in f5.monic_enum(d)]
    cands = [f for d in (0, 1, 2) for f in f5.monic_enum(d)]
    primes = {f: {p for p, _ in f5.factor(f)[0]} for f in cands}
    checked = 0
    for i in range(4):
        for others in itertools.product(small, repeat=3):
            fixed = others[:i] + (ONE,) + others[i:]
            support = set().union(*(primes[f] for f in others))
            g = f5.mul(fixed[i - 1], fixed[(i + 1) % 4])
            smooth = [f for f in cands if primes[f] <= support]
            coprime = [f for f in cands if primes[f].isdisjoint(support)]
            for f_s in smooth:
                base = H_global(f5, fixed[:i] + (f_s,) + fixed[i + 1 :], seed3)
                for f_c in coprime:
                    fs = fixed[:i] + (f5.mul(f_s, f_c),) + fixed[i + 1 :]
                    want = base * f5.residue_symbol(f_c, g)
                    assert H_global(f5, fs, seed3) == want, (fixed, i, f_s, f_c)
                    checked += 1
    assert checked > 10_000
