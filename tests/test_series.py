import random
from collections import Counter
from math import comb

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from mdslab import residue
from mdslab.cli import main
from mdslab.qlaurent import QL_ONE, QL_ZERO, QLaurent
from mdslab.reducer import DiagonalSeed, reduce_coeff, tuples_with_sum_at_most
from mdslab.residue import build_R, n_even_vars, run_pipeline
from mdslab.series import (
    MAX_BOX_BYTES,
    MultiSeries,
    _check_factors,
    _coeff_bound,
    _div_schedule,
    _expand as engine_expand,
    _last_live_step,
    _max_power,
    _power_coeff,
    enforce_box_limit,
    expand_diagonal,
    expand_factors,
    factorize_product_form,
    progressions,
)


def geometric(nvars, bound, alpha, beta=0, gamma=1):
    return expand_factors({(alpha, beta): gamma}, nvars, bound)


def test_single_factor_expansion():
    s = geometric(1, 5, (1,))
    assert all(s.coeff((d,)) == QL_ONE for d in range(6))
    inv = geometric(1, 5, (1,), gamma=-1)
    assert inv.coeff((0,)) == QL_ONE
    assert inv.coeff((1,)) == QLaurent.const(-1)
    assert not inv.coeff((2,))


def test_beta_carries_q_power():
    s = geometric(1, 3, (1,), beta=4)
    assert s.coeff((2,)) == QLaurent.q_power(8)


def one(nvars, bound):
    return MultiSeries(nvars, bound, {(0,) * nvars: QL_ONE})


def all_pairs_inverse(s):
    """Multiplicative inverse up to the bound; constant term must be 1.

    For each exponent e it scans every term e1 of s for e1 <= e: the
    route that :meth:`MultiSeries.div` replaced, kept as its oracle.
    """
    const = s.terms.get((0,) * s.nvars, QL_ZERO)
    if const != QL_ONE:
        raise ValueError("series inverse requires constant term 1")
    zero = (0,) * s.nvars
    inv = {zero: QL_ONE}
    # in lexicographic order e - e1 comes before e for every 0 < e1 <= e
    for e in tuples_with_sum_at_most(s.nvars, s.bound):
        if e == zero:
            continue
        acc = QL_ZERO
        for e1, c1 in s.terms.items():
            if e1 == zero or any(a > b for a, b in zip(e1, e)):
                continue
            rest = tuple(b - a for a, b in zip(e1, e))
            c2 = inv.get(rest)
            if c2 is not None:
                acc = acc + c1 * c2
        if acc:
            inv[e] = -acc
    return MultiSeries(s.nvars, s.bound, inv)


def roundtrip_pairs():
    """Pairs (a, b) of 2- and 3-variable series, b with constant term 1."""
    return [
        (geometric(2, 6, (1, 1)), geometric(2, 6, (1, 0), beta=2)),
        (geometric(3, 6, (1, 1, 0)), geometric(3, 6, (0, 2, 1), beta=2, gamma=-2)),
    ]


def test_mul_div_roundtrip():
    for a, b in roundtrip_pairs():
        s = a.mul(b)
        assert s.div(b) == a
        assert s.div(a) == b
        assert s.div(s) == one(s.nvars, 6)


def test_inverse_wrapper_still_inverts():
    for a, b in roundtrip_pairs():
        s = a.mul(b)
        assert s.mul(s.inverse()) == one(s.nvars, 6)
        assert s.inverse() == all_pairs_inverse(s)


def test_div_refuses_non_unit_constant_and_shape_mismatch():
    s = geometric(1, 3, (1,))
    for const in (QLaurent.const(2), QL_ZERO, QLaurent.q_power(4)):
        with pytest.raises(ValueError, match="constant term 1"):
            s.div(MultiSeries(1, 3, {(0,): const, (1,): QL_ONE}))
    for other in (one(2, 3), one(1, 4)):
        with pytest.raises(ValueError, match="shape mismatch"):
            s.div(other)


def random_series(rng, nvars, bound, density, unit=False):
    """Terms at a share ``density`` of the exponents, each a sum of up to
    three powers q^(j/4), -8 <= j <= 8, with coefficients in [-3, 3];
    ``unit`` sets the constant term to 1."""
    terms = {}
    for e in tuples_with_sum_at_most(nvars, bound):
        if rng.random() < density:
            terms[e] = QLaurent({rng.randint(-8, 8): rng.randint(-3, 3) for _ in range(3)})
    if unit:
        terms[(0,) * nvars] = QL_ONE
    return MultiSeries(nvars, bound, terms)


# (nvars, bound, divisor density): sparse divisors and dense ones
DIV_CASES = [(1, 6, 1.0), (2, 6, 0.3), (2, 6, 1.0), (3, 6, 0.2), (3, 5, 1.0), (4, 4, 1.0), (4, 6, 0.05)]


@pytest.mark.parametrize("nvars, bound, density", DIV_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_div_matches_mul_by_all_pairs_inverse(nvars, bound, density, seed):
    rng = random.Random(f"{nvars}-{bound}-{density}-{seed}")
    a = random_series(rng, nvars, bound, 0.5)
    b = random_series(rng, nvars, bound, density, unit=True)
    quotient = a.div(b)
    assert quotient == a.mul(all_pairs_inverse(b))
    assert quotient.mul(b) == a


@pytest.mark.parametrize("n", [2, 3, 4])
def test_div_matches_all_pairs_inverse_on_the_determination_series(n):
    # the two series of check_diagonal_determination, at the largest bound
    # the CLI passes it
    bound = 6
    probe = DiagonalSeed([QL_ONE] + [QLaurent.const(k + 2) for k in range(12)], name="probe")
    z1, z2 = (
        MultiSeries(n + 1, bound, {t: reduce_coeff(t, seed) for t in tuples_with_sum_at_most(n + 1, bound)})
        for seed in (run_pipeline(n, 8).seed, probe)
    )
    assert z1.div(z2) == z1.mul(all_pairs_inverse(z2))


def test_div_schedule_of_a_dense_divisor():
    # each e1 != 0 of degree d pairs with the C(8 - d, 4) rests of degree
    # <= 4 - d: 4*35 + 10*15 + 20*5 + 35*1 products in place of the
    # 70 * 70 pair tests of the all-pairs inverse and a full product
    dense = MultiSeries(4, 4, {e: QLaurent.const(1) for e in tuples_with_sum_at_most(4, 4)})
    schedule = _div_schedule(dense)
    assert sum(map(len, schedule.values())) == 425
    for e, pairs in schedule.items():
        for c1, rest in pairs:
            assert c1 == QL_ONE and any(a > b for a, b in zip(e, rest))
            assert all(a >= b for a, b in zip(e, rest))


def test_verify_divides_three_times_and_never_inverts(monkeypatch, capsys):
    # the verify-n3 workload, with the pipeline built afresh: one division
    # each in check_diagonal_determination, run_pipeline and reconstruct_R1
    monkeypatch.setattr(residue, "_PIPELINE_CACHE", {})
    calls = {"div": 0, "inverse": 0}

    def spy(name):
        real = getattr(MultiSeries, name)

        def counted(self, *args):
            calls[name] += 1
            return real(self, *args)

        return counted

    for name in calls:
        monkeypatch.setattr(MultiSeries, name, spy(name))
    argv = ["verify", "--n", "3", "--q", "5", "--suite", "all", "--bound", "4", "--trunc", "6"]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == {"div": 3, "inverse": 0}


def test_expand_diagonal():
    fl = {((1, 1), 0): 1, ((2, 0), 0): 1}
    diag = expand_diagonal(fl, 2, 4)
    # only powers of x0 x1 survive
    assert diag.nvars == 1
    assert diag.coeff((1,)) == QL_ONE
    assert diag.coeff((2,)) == expand_factors(fl, 2, 8).coeff((2, 2))
    assert diag.coeff((3,)) == expand_factors(fl, 2, 8).coeff((3, 3))


def product_by_mul(fl, nvars, bound):
    """The product as a chain of general series multiplications, one
    truncated geometric-type series per factor."""
    out = MultiSeries(nvars, bound, {(0,) * nvars: QL_ONE})
    for (alpha, beta), gamma in fl.items():
        terms = {}
        for k in range(bound // sum(alpha) + 1):
            if gamma < 0 and k > -gamma:
                break
            c = comb(gamma - 1 + k, k) if gamma > 0 else (-1) ** k * comb(-gamma, k)
            terms[tuple(k * a for a in alpha)] = QLaurent.q_power(k * beta, c)
        out = out.mul(MultiSeries(nvars, bound, terms))
    return out


def _expand(fl, nvars, keep):
    """Terms of the product at the exponents e with keep(e), by tuple.

    keep must hold on a downward-closed set: every factor exponent is
    nonnegative, so a dropped term never contributes to a kept one, and
    the truncated product is exact. The oracle of the numpy engine in
    :mod:`mdslab.series`.
    """
    terms = {(0,) * nvars: QL_ONE}
    for (alpha, beta), gamma in fl.items():
        # the k-th term of (1 - q^beta x^alpha)^(-gamma), k >= 1
        powers = []
        k = 1
        while gamma > 0 or k <= -gamma:
            e = tuple(k * a for a in alpha)
            if not keep(e):
                break
            c = comb(gamma - 1 + k, k) if gamma > 0 else (-1) ** k * comb(-gamma, k)
            powers.append((e, QLaurent.q_power(k * beta, c)))
            k += 1
        out = dict(terms)
        for e1, c1 in terms.items():
            for e2, c2 in powers:
                e = tuple(a + b for a, b in zip(e1, e2))
                if not keep(e):
                    break  # e1 + k alpha only grows with k
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        terms = {e: c for e, c in out.items() if c}
    return terms


def diagonal_oracle(fl, nvars, max_degree):
    """The diagonal read from the total-degree expansion to nvars * max_degree."""
    full = _expand(fl, nvars, lambda e: sum(e) <= nvars * max_degree)
    return [full.get((a,) * nvars, QL_ZERO) for a in range(max_degree + 1)]


def box_diagonal_oracle(fl, nvars, max_degree):
    """The diagonal read from the unpruned expansion of the box [0, D]^nvars."""
    box = _expand(fl, nvars, lambda e: max(e) <= max_degree)
    return [box.get((a,) * nvars, QL_ZERO) for a in range(max_degree + 1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_box_diagonal_matches_total_degree_diagonal(n):
    k, D = n_even_vars(n), 6
    fl = build_R(n, k * D)
    diag = expand_diagonal(fl, k, D)
    assert [diag.coeff((a,)) for a in range(D + 1)] == diagonal_oracle(fl, k, D)


@pytest.mark.parametrize("n, D", [(6, 8), (8, 6), (9, 8)])
def test_pruned_diagonal_matches_box_expansion(n, D):
    k = n_even_vars(n)
    fl = build_R(n, k * D)
    diag = expand_diagonal(fl, k, D)
    assert [diag.coeff((a,)) for a in range(D + 1)] == box_diagonal_oracle(fl, k, D)


def factor_products(nvars):
    # entries up to 6 put whole factors, or all their powers past the
    # first, outside the box [0, 4]^nvars; gamma takes either sign
    return st.dictionaries(
        st.tuples(
            st.tuples(*[st.integers(0, 6)] * nvars).filter(any),
            st.sampled_from([0, 2, 4]),
        ),
        st.integers(-3, 3).filter(bool),
        max_size=6,
    )


def degree_cut(factors, max_degree):
    return {key: gamma for key, gamma in factors.items() if sum(key[0]) <= max_degree}


@pytest.mark.parametrize("nvars", [2, 3])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_expansions_match_product_by_mul_on_random_products(nvars, data):
    fl = data.draw(factor_products(nvars))
    D = 4
    assert expand_factors(fl, nvars, nvars * D) == product_by_mul(fl, nvars, nvars * D)
    diag = expand_diagonal(fl, nvars, D)
    assert diag.nvars == 1 and diag.bound == D
    assert [diag.coeff((a,)) for a in range(D + 1)] == diagonal_oracle(fl, nvars, D)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_factorize_expand_roundtrip(data):
    nvars = data.draw(st.sampled_from([2, 3]))
    fl = data.draw(factor_products(nvars))
    bound = 6
    s = expand_factors(fl, nvars, bound)
    refound = factorize_product_form(s)
    # truncation only pins factors up to half the bound
    assert degree_cut(refound, bound // 2) == degree_cut(fl, bound // 2)


def qlaurent_expand(factors, nvars, box, keep):
    """The product engine as it was before the packed coefficients: the
    same candidates and keep test, each coefficient a QLaurent. The oracle
    of :func:`mdslab.series._expand`."""
    place = (box + 1) ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    exps = np.zeros((1, nvars), dtype=np.int64)
    coeffs = [QL_ONE]
    for i, ((alpha, beta), gamma) in enumerate(factors):
        kmax = _max_power(alpha, gamma, box)
        if not kmax:
            continue
        powers = [QL_ONE] + [
            QLaurent.q_power(k * beta, _power_coeff(gamma, k)) for k in range(1, kmax + 1)
        ]
        cand = exps + np.arange(kmax + 1)[:, None, None] * np.array(alpha)
        ks, ts = np.nonzero(cand.max(axis=2) <= box)
        rows = cand[ks, ts]
        codes = rows @ place
        kept = keep(i, rows, codes)
        out = {}
        for k, t, f in zip(ks[kept].tolist(), ts[kept].tolist(), codes[kept].tolist()):
            prod = coeffs[t] * powers[k] if k else coeffs[t]
            out[f] = out[f] + prod if f in out else prod
        nonzero = {f: c for f, c in out.items() if c}
        coeffs = list(nonzero.values())
        exps = np.array(list(nonzero), dtype=np.int64)[:, None] // place % (box + 1)
    return exps, coeffs


def any_beta_products(nvars):
    # beta negative, zero, odd or even in quarters, gamma of either sign,
    # some alpha past the box
    return st.dictionaries(
        st.tuples(st.tuples(*[st.integers(0, 5)] * nvars).filter(any), st.integers(-7, 7)),
        st.integers(-4, 4).filter(bool),
        max_size=7,
    )


def as_terms(exps, coeffs):
    return dict(zip(map(tuple, exps.tolist()), coeffs))


@pytest.mark.parametrize("nvars", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_expansion_matches_the_qlaurent_engine(nvars, data):
    items = _check_factors(data.draw(any_beta_products(nvars)), nvars)
    D = 4
    last = _last_live_step(items, nvars, D)
    for box, keep in [
        (nvars * D, lambda i, rows, codes: rows.sum(axis=1) <= nvars * D),
        (D, lambda i, rows, codes: last[codes] > i),
    ]:
        got = as_terms(*engine_expand(items, nvars, box, nvars * D, keep))
        assert got == as_terms(*qlaurent_expand(items, nvars, box, keep))


@pytest.mark.parametrize("nvars", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_expansion_coefficients_obey_the_collapsed_bound(nvars, data):
    # the norm of the coefficient at x^e is at most [z^|e|] of the product
    # of (1 - z^|alpha|)^(-|gamma|), the bound that sizes the digits
    fl = data.draw(any_beta_products(nvars))
    bound = 3 * nvars
    collapsed = Counter()
    for (alpha, _beta), gamma in fl.items():
        collapsed[((sum(alpha),), 0)] += abs(gamma)
    major = product_by_mul(collapsed, 1, bound)
    major = [major.coeff((m,)).constant_coeff() for m in range(bound + 1)]
    for e, c in expand_factors(fl, nvars, bound).terms.items():
        assert sum(map(abs, c.terms.values())) <= major[sum(e)], e
    assert _coeff_bound(_check_factors(fl, nvars), bound) == max(major)


def test_expansion_refuses_negative_exponents():
    # a negative entry, or the zero vector, whose factor has no finite expansion
    for alpha in [(-1, 2), (0, 0)]:
        fl = {(alpha, 0): 1}
        with pytest.raises(ValueError, match="not nonnegative"):
            expand_diagonal(fl, 2, 4)
        with pytest.raises(ValueError, match="not nonnegative"):
            expand_factors(fl, 2, 4)


def test_expansion_refuses_boxes_past_int64_codes():
    fl = {((1,) + (0,) * 39, 0): 1}
    # 5^40 codes of the box [0, 4]^40 exceed int64; 5^27 fit
    with pytest.raises(ValueError, match="int64"):
        expand_factors(fl, 40, 4)
    assert len(expand_factors({((1,) + (0,) * 26, 0): 1}, 27, 4).terms) == 5


def test_progressions_merge_families_and_drop_gamma_zero():
    # (2, 1) and (3, 2) lie on both families: gamma 1 - 1 drops them, and
    # only the first family's start is left
    fams = {((1, 0), 0): 1, ((2, 1), 0): -1, ((0, 1), 4): 2, ((1, 2), 4): 1}
    assert progressions(fams, (1, 1), 5) == {
        ((1, 0), 0): 1,
        ((0, 1), 4): 2,
        ((1, 2), 4): 3,
        ((2, 3), 4): 3,
    }


def test_progressions_list_each_family_to_the_bound():
    fams = {((1, 0), 0): 2, ((0, 2), 4): 1, ((3, 3), 0): 1}
    fl = progressions(fams, (1, 1), 4)
    assert fl == {((1, 0), 0): 2, ((2, 1), 0): 2, ((0, 2), 4): 1, ((1, 3), 4): 1}
    # the families merge where their progressions meet
    assert progressions({((1, 1), 0): 1, ((2, 2), 0): 1}, (1, 1), 4) == {
        ((1, 1), 0): 1,
        ((2, 2), 0): 2,
    }


def test_box_cost_admits_the_limit_and_refuses_one_cell_more():
    enforce_box_limit(4, 6)  # residue-n6's box, 7^4 = 2,401 cells
    enforce_box_limit(1, MAX_BOX_BYTES // 8 - 1)  # 8 bytes a cell, at the limit
    with pytest.raises(ValueError, match="above the limit"):
        enforce_box_limit(1, MAX_BOX_BYTES // 8)
