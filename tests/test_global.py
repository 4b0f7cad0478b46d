import dataclasses
import itertools
import json
import random

import pytest

import numpy as np
from test_accel import general_sums
from test_fqpoly import orbit, poly, poly_pow, scale, translate

from mdslab import accel, globalweights, reducer
from mdslab.cli import main
from mdslab.fqpoly import ONE, Fq, degree, field
from mdslab.globalweights import (
    H_global,
    _glue,
    _prime_support,
    _slice_coeffs,
    global_coeff_sum,
    global_coeff_sums,
    l_series_H,
    slice_batch,
)
from mdslab.lfunctions import l_poly
from mdslab.qlaurent import QLaurent
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
    block = tuple(poly_pow(fq, p, support[p][i]) for i in range(n1))
    rest = tuple(
        fq.divmod(f, poly_pow(fq, p, support[p][i]))[0] for i, f in enumerate(polys)
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
            assert got == reduce_coeff(t, seed).eval_int(5), t
            assert got == brute_coeff_sum(f5, t, seed), t


def test_global_sum_other_field(seed3):
    f13 = field(13)
    for t in [(1, 0, 1, 0), (0, 2, 0, 0), (1, 1, 1, 0)]:
        got = global_coeff_sum(f13, t, seed3)
        assert got == reduce_coeff(t, seed3).eval_int(13), t
        assert got == brute_coeff_sum(f13, t, seed3), t


@pytest.mark.parametrize("n, total, q", [(3, 6, 5), (3, 4, 13), (4, 5, 5)])
def test_global_sum_matches_engine_beyond_brute(n, total, q):
    # sizes the brute sum cannot reach cheaply: up to q^total tuples each
    fq = field(q)
    seed = run_pipeline(n, total + 2).seed
    for t in tuples_with_sum_at_most(n + 1, total):
        assert global_coeff_sum(fq, t, seed) == reduce_coeff(t, seed).eval_int(q), t


def test_global_sum_over_pivot_free_other_slots(f5, seed2):
    # at q = 5 the other slots of (5, 5, 0) have degrees 5 and 0, neither
    # prime to 5, so monic_orbits yields each of their 3,125 tuples alone
    t = (5, 5, 0)
    assert global_coeff_sum(f5, t, seed2) == reduce_coeff(t, seed2).eval_int(5)


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
    t = poly(f5, [0, 1])
    u = poly(f5, [1, 1])
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
    with pytest.raises(ValueError, match=r"^enumeration budget exceeded: 4 \* 3125 = 12500 > 1000$"):
        global_coeff_sum(f5, (2, 2, 1, 5), seed3)


@pytest.mark.parametrize("n, q, bound", [(2, 5, 4), (3, 5, 4), (4, 5, 4), (2, 13, 3)])
def test_grouped_sums_equal_the_per_t_route(n, q, bound):
    # one slice per (slot, other degrees), read at each t_i, against one
    # slice per t swept to its own t_i
    fq = field(q)
    seed = run_pipeline(n, bound + 2).seed
    ts = list(tuples_with_sum_at_most(n + 1, bound))
    assert global_coeff_sums(fq, ts, seed) == [global_coeff_sum(fq, t, seed) for t in ts]


def slice_groups(n1, bound):
    """{(i, the other slots' degrees): largest t_i} over the t of sum <=
    bound, i the first slot of largest degree."""
    tops = {}
    for t in tuples_with_sum_at_most(n1, bound):
        i = t.index(max(t))
        key = (i, t[:i] + t[i + 1 :])
        tops[key] = max(tops.get(key, 0), t[i])
    return tops


def test_local_to_global_sums_one_slice_per_group(monkeypatch, tmp_path):
    # verify's local_to_global at n = 3, q = 5, bound 4: the t sharing the
    # first slot of largest degree and the other degrees read one slice per
    # orbit of other entries under translations and square scalings, swept
    # to their largest t_i and weighted by the orbit size: 95 slices stand
    # for the 639 tuples
    calls = []
    orbits = []
    euler = globalweights._slice_coeffs
    monic_orbits = Fq.monic_orbits

    def counting(fq, fixed, i, xbound, seed):
        calls.append((fixed, i, xbound))
        return euler(fq, fixed, i, xbound, seed)

    def recording(fq, degrees):
        for others, size in monic_orbits(fq, degrees):
            orbits.append((tuple(degrees), size))
            yield others, size

    monkeypatch.setattr(globalweights, "_slice_coeffs", counting)
    monkeypatch.setattr(Fq, "monic_orbits", recording)
    argv = ["verify", "--n", "3", "--q", "5", "--suite", "axioms", "--bound", "4", "--trunc", "6"]
    assert main(argv + ["--out", str(tmp_path / "report")]) == 0
    tops = slice_groups(4, 4)
    assert len(calls) == len(set(calls)) == len(orbits) == 95
    assert sum(size for _, size in orbits) == sum(5 ** sum(rest) for _, rest in tops) == 639
    # when some other slot has a degree prime to 5: 5 translates times the
    # squares {1, 4} over the stabiliser, 5 or 10; else the tuple of ones
    sizes = {size for degrees, size in orbits if any(degrees)}
    assert sizes == {5, 10}
    assert all(size == 1 for degrees, size in orbits if not any(degrees))
    assert {(i, xbound) for _, i, xbound in calls} == {(i, top) for (i, _), top in tops.items()}


def test_grouped_sums_price_every_t_before_any_slice(f5, seed3, monkeypatch):
    # the batch's tuples of other entries, 5^0 + 5^5 + 5^7, are the witness,
    # and no slice is summed before the batch is priced
    def boom(*args):
        raise RuntimeError("summed a slice before pricing every t")

    monkeypatch.setattr(globalweights, "_slice_coeffs", boom)
    monkeypatch.setattr(globalweights, "BUDGET", 1000)
    ts = [(0, 0, 0, 5), (2, 2, 1, 5), (3, 3, 1, 5)]
    with pytest.raises(ValueError, match=r"^enumeration budget exceeded: 4 \* 81251 = 325004 > 1000$"):
        global_coeff_sums(f5, ts, seed3)


def test_grouped_sums_price_the_batch_not_each_t(f5, seed3, monkeypatch):
    # each t alone costs 4 * 5^3 = 500 <= 1000, and (0, 0, 3, 4) shares its
    # slot and other degrees with (0, 0, 3, 5), so the batch is three
    # groups: 4 * 375 = 1500, refused before any slice is summed
    def boom(*args):
        raise RuntimeError("summed a slice before pricing the batch")

    monkeypatch.setattr(globalweights, "_slice_coeffs", boom)
    monkeypatch.setattr(globalweights, "BUDGET", 1000)
    ts = [(3, 0, 0, 5), (0, 3, 0, 5), (0, 0, 3, 5), (0, 0, 3, 4)]
    with pytest.raises(ValueError, match=r"^enumeration budget exceeded: 4 \* 375 = 1500 > 1000$"):
        global_coeff_sums(f5, ts, seed3)


def test_global_coeff_sum_pinned_value(f5, seed2):
    # a square-carrying index, pinned at q = 5
    assert global_coeff_sum(f5, (2, 2, 0), seed2) == 125


def test_l_series_H_fe(f5, seed3):
    t = poly(f5, [0, 1])
    u = poly(f5, [1, 1])
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
    t = poly(f5, [0, 1])
    with pytest.raises(ValueError, match="xbound"):
        l_series_H(f5, (t, ONE, t, ONE), 1, 1, seed3)


def test_l_series_H_xbound_guard_before_work(f5, seed3, monkeypatch):
    def boom(*args):
        raise RuntimeError("swept before checking xbound")

    monkeypatch.setattr(globalweights, "H_global", boom)
    monkeypatch.setattr(accel, "symbol_sums_by_degree", boom)
    t = poly(f5, [0, 1])
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
    t, u = poly(f5, [0, 1]), poly(f5, [1, 1])
    for fixed in ((t, ONE, u, ONE), (t, ONE, f5.mul(u, poly(f5, [2, 1])), ONE)):
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
    t, u = poly(f5, [0, 1]), poly(f5, [1, 1])
    # g = t u, swept to 1 of 3; g = t^2 u, its character that of u, to 0 of 2
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
    t, u = poly(fq, [0, 1]), poly(fq, [1, 1])
    g = fq.mul(t, u)
    _slice_coeffs(fq, (t, ONE, u, ONE), 1, 3, seed3)
    # degrees 0 and 1 only
    assert accel._cache(fq).entries["sums", (t, u)].tolist() == [1, -1]
    rows = accel._modulus_rows

    def perturbed(fq, factorisations, dmax):
        out = rows(fq, factorisations, dmax)
        if dmax >= 2:
            out[:, fq.q**2] += 1  # f = t^2, where (t^2 / g) = 0
        return out

    monkeypatch.setattr(accel, "_modulus_rows", perturbed)
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
    # prime to g = f_{i-1} f_{i+1}, by the general-modulus route
    n1 = len(fixed)
    support = _prime_support(fq, fixed[:i] + (ONE,) + fixed[i + 1 :])
    r = ONE
    for p, vec in support.items():
        if not vec[(i - 1) % n1] and not vec[(i + 1) % n1]:
            r = fq.mul(r, p)
    g = fq.mul(fixed[(i - 1) % n1], fixed[(i + 1) % n1])
    sums = general_sums(fq, fq.factor(fq.mul(g, fq.mul(r, r)))[0], xbound)
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


def every_verify_slice(fq, n, bound, trunc):
    """Every (fixed, i, xbound) of verify --suite all over every tuple,
    with no orbit taken: the tuples of other entries of local_to_global,
    and the pairs (f0, f2) of l_series_fe."""
    keys = set()
    for (i, rest), top in slice_groups(n + 1, bound).items():
        for others in itertools.product(*map(fq.monic_enum, rest)):
            keys.add((others[:i] + (ONE,) + others[i:], i, top))
    for s in range(min(trunc, 3) + 1):
        for d0 in range(s + 1):
            for f0 in fq.monic_enum(d0):
                for f2 in fq.monic_enum(s - d0):
                    keys.add(((f0, ONE, f2) + (ONE,) * (n - 2), 1, s + 1))
    return keys


# (the distinct slices verify --suite all --bound 4 --trunc 6 builds at
# q = 5, those of every_verify_slice): one slice per orbit of translations
# and square scalings
VERIFY_SLICES = {2: (109, 769), 3: (171, 1225), 4: (306, 2316)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_euler_product_matches_smooth_parts_on_every_verify_slice(n, monkeypatch, tmp_path):
    # every slice that verify --suite all reaches, from l_series_fe and
    # local_to_global, against the sum over every smooth part and against
    # the slice built on an empty factor memo; the slice of every tuple of
    # the full enumeration, each in the orbit of exactly one of them, equals
    # its representative's; and every sweep of the run, all from slices, is of
    # a squarefree modulus below its degree, or of the principal character
    slices = {}
    euler = globalweights._slice_coeffs
    sweeps = []
    sweep = accel.symbol_sums_by_degree

    def recording(fq, fixed, i, xbound, seed):
        got = euler(fq, fixed, i, xbound, seed)
        slices[fixed, i, xbound] = (fq, seed, got)
        return got

    def recording_sweep(fq, primes, dmax):
        sweeps.append((fq, tuple(primes), dmax))
        return sweep(fq, primes, dmax)

    monkeypatch.setattr(globalweights, "_slice_coeffs", recording)
    monkeypatch.setattr(accel, "symbol_sums_by_degree", recording_sweep)
    argv = ["verify", "--n", str(n), "--q", "5", "--suite", "all", "--bound", "4", "--trunc", "6"]
    assert main(argv + ["--out", str(tmp_path / "report")]) == 0
    full = every_verify_slice(field(5), n, 4, 6)
    assert (len(slices), len(full)) == VERIFY_SLICES[n]
    assert slices.keys() <= full
    for fixed, i, xbound in full:
        (rep,) = [key for key in ((m, i, xbound) for m in orbit(field(5), fixed)) if key in slices]
        fq, seed, got = slices[rep]
        assert _slice_coeffs(fq, fixed, i, xbound, seed) == got, (fixed, i, xbound)
    assert any(primes for _, primes, _ in sweeps) and any(not primes for _, primes, _ in sweeps)
    for fq, primes, dmax in sweeps:
        assert len(set(primes)) == len(primes), primes
        assert all(fq.factor(p)[0] == ((p, 1),) for p in primes), primes
        assert not primes or dmax < sum(map(degree, primes)), (primes, dmax)
    for (fixed, i, xbound), (fq, seed, got) in slices.items():
        assert got == smooth_part_slice(fq, fixed, i, xbound, seed), (fixed, i, xbound)
        # read through the factors earlier slices left on the seed, the
        # slice is the one built on an empty factor memo
        cold = dataclasses.replace(seed, _slice_factors={})
        assert got == _slice_coeffs(fq, fixed, i, xbound, cold), (fixed, i, xbound)


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


def test_slice_factors_are_built_once_per_key(monkeypatch, tmp_path):
    # the slices of one verify-n3 run, on a pipeline built afresh, ask
    # local_weight_value for one weight per term of each factor they build:
    # as many weights as the memo holds terms means that no factor was
    # built twice
    from mdslab import residue

    pipelines = {}
    asked = []
    depth = []
    weight = globalweights.local_weight_value
    euler = globalweights._slice_coeffs

    def counting(p_deg, q0, t, seed):
        if depth:
            asked.append((p_deg, q0, t))
        return weight(p_deg, q0, t, seed)

    def entered(*args):
        depth.append(1)
        try:
            return euler(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(residue, "_PIPELINE_CACHE", pipelines)
    monkeypatch.setattr(globalweights, "local_weight_value", counting)
    monkeypatch.setattr(globalweights, "_slice_coeffs", entered)
    argv = ["verify", "--n", "3", "--q", "5", "--suite", "all", "--bound", "4", "--trunc", "6"]
    assert main(argv + ["--out", str(tmp_path / "report")]) == 0
    (pipe,) = pipelines.values()
    memo = pipe.seed._slice_factors
    assert len(memo) == 98
    assert len(asked) == sum(map(len, memo.values()))


def test_slice_factors_cut_at_one_xbound_are_not_read_at_another(f5, seed3):
    # a slice to a small xbound leaves its primes' factors, cut short, on
    # the seed; the slice of the same primes to a larger xbound, read
    # through them, must equal the one built on an empty factor memo. A
    # power of t sits next to slot i, so t's factor has terms past the cut
    t = poly(f5, [0, 1])
    t2 = fq_sq(f5, t)
    for fixed, i in (((ONE, ONE, ONE, t2), 0), ((ONE, ONE, t, f5.mul(t, t2)), 2)):
        warm = dataclasses.replace(seed3, _slice_factors={})
        for xbound in (1, 6):
            cold = dataclasses.replace(seed3, _slice_factors={})
            want = _slice_coeffs(f5, fixed, i, xbound, cold)
            assert _slice_coeffs(f5, fixed, i, xbound, warm) == want, (fixed, i, xbound)


def test_seeds_with_other_weights_share_no_slice_factors(f5, seed3):
    # a seed whose d_1 is doubled changes the weight at (1, 1, 1, 1): the
    # slice of (t, 1, t, t) in slot 1 then differs, and each seed's slice
    # is its own oracle's, whichever seed builds the factors first
    values = seed3.values
    other = reducer.DiagonalSeed(
        [values[0], QLaurent({k: 2 * c for k, c in values[1].terms.items()})] + values[2:],
        name="d1-doubled",
    )
    t = poly(f5, [0, 1])
    for fixed in ((t, ONE, t, t), (t, ONE, t, fq_sq(f5, t))):
        slices = [_slice_coeffs(f5, fixed, 1, 4, seed) for seed in (seed3, other)]
        assert slices[0] != slices[1], fixed
        for got, seed in zip(slices, (seed3, other)):
            assert got == smooth_part_slice(f5, fixed, 1, 4, seed), (fixed, seed.name)


def test_slice_hands_the_sweep_only_its_odd_primes(seed3, monkeypatch):
    # _slice_coeffs hands the sweep the primes of odd exponent in
    # g = f_{i-1} f_{i+1}, read off the neighbours' factorisations: it
    # never multiplies out g, also on a fresh context whose factorisations
    # and sweeps are all cold
    cases = random_cases(Fq(5), random.Random(3), 60, 2)
    wants = [smooth_part_slice(Fq(5), fixed, i, 4, seed3) for fixed, i in cases]
    odds = []
    for fixed, i in cases:
        exps = {}
        for f in (fixed[i - 1], fixed[(i + 1) % 4]):
            for p, e in Fq(5).factor(f)[0]:
                exps[p] = exps.get(p, 0) + e
        odds.append(sorted(p for p, e in exps.items() if e % 2))
    sweep = accel.symbol_sums_by_degree
    asked = []

    def recording(fq, primes, dmax):
        asked.append(sorted(primes))
        return sweep(fq, primes, dmax)

    def boom(*args):
        raise RuntimeError("multiplied out a polynomial")

    monkeypatch.setattr(accel, "symbol_sums_by_degree", recording)
    monkeypatch.setattr(Fq, "mul", boom)
    fq = Fq(5)
    for (fixed, i), want, odd in zip(cases, wants, odds):
        asked.clear()
        assert _slice_coeffs(fq, fixed, i, 4, seed3) == want, (fixed, i)
        # only a slice whose Euler product vanishes may sweep nothing
        assert asked == [odd] or not any(want) and not asked, (fixed, i, asked)
    assert any(odds) and not all(odds)


def test_principal_slice_at_a_large_q_matches_the_engine():
    # the slice of t = (6, 0, 0) at q=29 fixes two ones: its character is
    # principal, so no row of 29^6 entries is swept
    seed = run_pipeline(2, 6).seed
    got = global_coeff_sums(field(29), [(6, 0, 0)], seed)
    assert got == [reduce_coeff((6, 0, 0), seed).eval_int(29)]


@pytest.mark.parametrize("q", [5, 13, 17, 29])
def test_every_slice_sweep_slice_batch_admits_is_priced_below_the_bound(q):
    # a slice's odd primes divide the neighbours of its slot, so their
    # degrees sum to at most that of the other slots, rest; the largest
    # rest slice_batch admits, at n = 2 (n1 = 3), sweeps distinct primes of
    # degrees summing to rest to degree rest - 1 at worst: every such set
    # of degrees is priced below MAX_SWEEP_BYTES
    fq = Fq(q)
    rest = max(r for r in range(1, 30) if 3 * q**r <= globalweights.BUDGET)
    slice_batch(fq, [(rest, rest, 0)])
    with pytest.raises(ValueError, match="budget"):
        slice_batch(fq, [(rest + 1, rest + 1, 0)])

    def prime_count(e):
        # monic primes of degree e: (1/e) sum over d | e of mu(d) q^(e/d)
        mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1}
        return sum(mu[d] * q ** (e // d) for d in range(1, e + 1) if e % d == 0) // e

    def degree_sets(total, smallest):
        # the multisets of prime degrees >= smallest summing to total
        if total == 0:
            yield []
        for e in range(smallest, total + 1):
            for tail in degree_sets(total - e, e):
                yield [e] + tail

    checked = 0
    for degrees in degree_sets(rest, 1):
        counts = {e: degrees.count(e) for e in set(degrees)}
        if all(c <= prime_count(e) for e, c in counts.items()):
            accel._check_cost(q, sorted(counts.items()), rest - 1, 1, lambda: "the sweep")
            checked += 1
    assert checked > 1


def sums_keys(fq):
    return [key for key in accel._cache(fq).entries if key[0] == "sums"]


def test_l_poly_and_a_slice_share_one_sums_entry(seed3, monkeypatch):
    # G = t (t + 1) (t + 2) for the slice with f_0 = t, f_2 = (t + 1)(t + 2)
    # in slot 1: l_poly of that g and the slice read one cache entry,
    # whichever asks first
    fq = Fq(5)
    t, u, v = poly(fq, [0, 1]), poly(fq, [1, 1]), poly(fq, [2, 1])
    g, fixed = fq.mul(t, fq.mul(u, v)), (t, ONE, fq.mul(u, v), ONE)
    want = brute_slice(fq, fixed, 1, 3, seed3)
    l_poly(fq, g)
    rows = accel._modulus_rows

    def no_sweep(*args):
        raise RuntimeError("swept again")

    monkeypatch.setattr(accel, "_modulus_rows", no_sweep)
    assert _slice_coeffs(fq, fixed, 1, 3, seed3) == want
    assert sums_keys(fq) == [("sums", (t, u, v))]
    monkeypatch.setattr(accel, "_modulus_rows", rows)
    other = Fq(5)
    assert _slice_coeffs(other, fixed, 1, 3, seed3) == want
    l_poly(other, g)  # sweeps one degree further, into the same entry
    assert sums_keys(other) == [("sums", (t, u, v))]


@pytest.mark.parametrize("q, max_deg", [(5, 4), (13, 3)])
def test_capped_sweep_of_a_non_square_is_the_full_sweep(q, max_deg):
    # for every monic G that is not a square, (. / G) is a nontrivial
    # character modulo rad G, so its sums vanish from deg rad G on: the
    # full sweep to deg G + 1 is the sweep to deg rad G - 1 plus zeros.
    # Both by the general-modulus route, which the public sweep of a
    # squarefree G matches. Two contexts, so that neither sweep reads rows
    # the other built.
    full_fq, capped_fq = Fq(q), Fq(q)
    checked = 0
    for d in range(1, max_deg + 1):
        for G in full_fq.monic_enum(d):
            factors = full_fq.factor(G)[0]
            if all(e % 2 == 0 for _, e in factors):
                continue
            rad = sum(degree(p) for p, _ in factors)
            full = general_sums(full_fq, factors, d + 1)
            capped = general_sums(capped_fq, factors, rad - 1)
            assert full == capped + [0] * (d + 2 - rad), G
            if rad == d:
                primes = [p for p, _ in factors]
                assert accel.symbol_sums_by_degree(capped_fq, primes, rad - 1).tolist() == capped
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


@pytest.mark.parametrize("q", [5, 13, 17, 29])
def test_H_and_slices_are_fixed_by_translations_and_square_scalings(q, seed3):
    # sigma(f)(t) = a^(-deg f) f(a t + b) on every entry at once: every
    # translation (a = 1) and every square scaling (b = 0) fixes H and
    # every slice, while a non-square a moves a slice, so a wrong group
    # fails the test. The first case is one it moves: its twist sign is
    # (t / t + 1), which a scaling carries to (t / t + 1/a) = legendre(a)
    fq = field(q)
    t, u = poly(fq, [0, 1]), poly(fq, [1, 1])
    cases = [((t, ONE, ONE, u), 1)] + random_cases(fq, random.Random(q), 8, 2)
    squares = [a for a in range(1, q) if fq.legendre[a] == 1]
    fixing = [lambda f, b=b: translate(fq, f, b) for b in range(q)]
    fixing += [lambda f, a=a: scale(fq, f, a) for a in squares]
    moving = [lambda f, a=a: scale(fq, f, a) for a in range(1, q) if a not in squares]
    for fixed, i in cases:
        xbound = min_xbound(fixed, i)
        h = H_global(fq, fixed, seed3)
        got = _slice_coeffs(fq, fixed, i, xbound, seed3)
        for sigma in fixing:
            image = tuple(map(sigma, fixed))
            assert H_global(fq, image, seed3) == h, (fixed, image)
            assert _slice_coeffs(fq, image, i, xbound, seed3) == got, (fixed, i, image)
    fixed, i = cases[0]
    got = _slice_coeffs(fq, fixed, i, 0, seed3)
    assert got != [0]
    for sigma in moving:
        assert _slice_coeffs(fq, tuple(map(sigma, fixed)), i, 0, seed3) == [-got[0]], q
