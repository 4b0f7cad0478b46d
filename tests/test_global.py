import itertools
import json
import random

import pytest

from mdslab import accel, globalweights
from mdslab.cli import main
from mdslab.fqpoly import ONE, field
from mdslab.globalweights import (
    H_global,
    _prime_support,
    _slice_coeffs,
    global_coeff_sum,
    l_series_H,
)
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
    # the coprime character sum off by one at a single degree d must break
    # the functional equation, for even (s = 2) and odd (s = 3) slices;
    # the self-paired middle degree of an odd slice is left out
    sweep = accel.symbol_sums_by_degree
    t, u = f5.poly([0, 1]), f5.poly([1, 1])
    for fixed in ((t, ONE, u, ONE), (t, ONE, f5.mul(u, f5.poly([2, 1])), ONE)):
        s = len(fixed[0]) + len(fixed[2]) - 2
        xbound = min_xbound(fixed, 1)
        assert l_series_H(f5, fixed, 1, xbound, seed3)["status"] == "pass"
        for d in range(xbound + 1):
            if s % 2 and 2 * d == s - 1:
                continue

            def perturbed(fq, g, dmax, d=d):
                sums = sweep(fq, g, dmax).copy()
                sums[d] += 1
                return sums

            monkeypatch.setattr(accel, "symbol_sums_by_degree", perturbed)
            assert l_series_H(f5, fixed, 1, xbound, seed3)["status"] == "fail", (fixed, d)
            monkeypatch.undo()


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
