from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mdslab.qlaurent import QL_ONE, QL_ZERO, QLaurent
from mdslab.residue import build_R, n_even_vars
from mdslab.series import (
    MultiSeries,
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


def test_mul_inverse_roundtrip():
    two = geometric(2, 6, (1, 1)).mul(geometric(2, 6, (1, 0), beta=2))
    three = geometric(3, 6, (1, 1, 0)).mul(geometric(3, 6, (0, 2, 1), beta=2, gamma=-2))
    for s in (two, three):
        assert s.mul(s.inverse()) == MultiSeries(s.nvars, 6, {(0,) * s.nvars: QL_ONE})


def test_inverse_requires_unit_constant():
    s = MultiSeries(1, 3, {(0,): QLaurent.const(2)})
    with pytest.raises(ValueError):
        s.inverse()


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
