import hashlib
import itertools

import pytest
from partition_helpers import chain_to_deltas, conjugate, deltas_to_chain, gamma_decomposition
from test_qlaurent import laurent_coeff

from mdslab.partitions import (
    _iter_partitions_upto,
    _partitions_with_sum,
    count_reduction_chains,
    enumerate_reduction_chains,
    partition_class_counts,
    partition_product_gf,
    series_int_coeff,
)
from mdslab.reducer import compute_P, tuples_with_sum_at_most
from mdslab.residue import build_R, n_even_vars, run_pipeline
from mdslab.series import expand_diagonal


# sha256 of the terms of the product formula at size 1 and at size n, for
# n = 1..5 and bound 0..8, pinned from the per-formula loops that listed the
# columns before the shared family expansion
PRODUCT_GF_DIGESTS = {
    "1": "d07961d28f0aa1519671a7d6b9679ca9510b97d8843f96176c8275fe69381501",
    "n": "adec1df86c77332af7fdc4e90f193df1429ce9e731e1d992107c195f3d9753c9",
}


@pytest.mark.parametrize("size", list(PRODUCT_GF_DIGESTS))
def test_product_gf_matches_pinned_tables(size):
    tables = [
        sorted(
            (e, sorted(c.terms.items()))
            for e, c in partition_product_gf(n, 1 if size == "1" else n, bound).terms.items()
        )
        for n in range(1, 6)
        for bound in range(9)
    ]
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == PRODUCT_GF_DIGESTS[size]


def p_lowest_term_product_route(n: int, amax: int) -> list[int]:
    """Oracle: the diagonal coefficients of the beta = 0 part of the residue
    product, expanded on its own.

    This is the combinatorial prediction for the lowest coefficient of
    each p_a.
    """
    k = n_even_vars(n)
    fl = {key: gamma for key, gamma in build_R(n, amax * k).items() if key[1] == 0}
    diag = expand_diagonal(fl, k, amax)
    return [series_int_coeff(diag, (d,)) for d in range(amax + 1)]


@pytest.mark.parametrize("n", range(2, 10))
def test_q0_part_of_the_pipeline_diagonal_is_the_beta0_product(n):
    # every beta is >= 0, so the q^0 part of R_diag is the beta = 0 product
    r_diag = run_pipeline(n, 6).r_diag
    low = [series_int_coeff(r_diag, (a,)) for a in range(7)]
    assert low == p_lowest_term_product_route(n, 6)


def count_partition_tuples(n: int, sums: tuple[int, ...]) -> int:
    """Partitions whose entries, read cyclically through the n congruence
    classes, have the prescribed class sums.

    Entry j (counting from zero) lands in class j mod n; ``sums`` lists the
    class totals starting with the class of the first entry.
    """
    sums = tuple(sums)
    if len(sums) != n:
        raise ValueError("need one sum per congruence class")
    total = sum(sums)
    count = 0
    for p in _partitions_with_sum(total):
        if len(p) > total:
            continue
        acc = [0] * n
        for j, entry in enumerate(p):
            acc[j % n] += entry
        if tuple(acc) == sums:
            count += 1
    return count


def count_partition_ntuples(n, sums):
    """Oracle for one vector of class sums: enumerate every n-tuple of
    partitions up to its total and keep those whose sums match; entry j of
    the i-th partition (both from zero) lands in class i + j mod n.
    """
    sums = tuple(sums)
    total = sum(sums)
    per = [list(_iter_partitions_upto(total))] * n
    count = 0
    for combo in itertools.product(*per):
        if sum(sum(p) for p in combo) != total:
            continue
        acc = [0] * n
        for i, p in enumerate(combo):
            for j, entry in enumerate(p):
                acc[(i + j) % n] += entry
        if tuple(acc) == sums:
            count += 1
    return count


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    for p in [(5, 3, 3, 1), (2, 2), (1,)]:
        assert conjugate(conjugate(p)) == p


@pytest.mark.parametrize("n", [2, 3])
def test_partition_count_vs_product(n):
    gf = partition_product_gf(n, 1, 6)
    for sums in tuples_with_sum_at_most(n, 6):
        assert series_int_coeff(gf, sums) == count_partition_tuples(n, sums), sums


@pytest.mark.parametrize("n,total", [(2, 4), (3, 3)])
def test_partition_ntuple_count_vs_product(n, total):
    gf = partition_product_gf(n, n, total)
    for sums in tuples_with_sum_at_most(n, total):
        assert series_int_coeff(gf, sums) == count_partition_ntuples(n, sums), sums


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_binned_partition_counts_match_oracle(n):
    counts = partition_class_counts(n, 1, 6)
    assert all(sum(sums) <= 6 for sums in counts)
    for sums in tuples_with_sum_at_most(n, 6):
        assert counts.get(sums, 0) == count_partition_tuples(n, sums), sums


@pytest.mark.parametrize("n,total", [(1, 5), (2, 4), (3, 3), (4, 2)])
def test_binned_ntuple_counts_match_oracle(n, total):
    counts = partition_class_counts(n, n, total)
    assert all(sum(sums) <= total for sums in counts)
    for sums in tuples_with_sum_at_most(n, total):
        assert counts.get(sums, 0) == count_partition_ntuples(n, sums), sums


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_product_gf_matches_binned_counts_at_every_size(n):
    # between size 1 and size n the columns start at the offsets 0..size-1
    for size in range(1, n + 1):
        gf = partition_product_gf(n, size, 4)
        counts = partition_class_counts(n, size, 4)
        for sums in tuples_with_sum_at_most(n, 4):
            assert series_int_coeff(gf, sums) == counts.get(sums, 0), (size, sums)


def test_chain_triple_route_n3():
    # chains == beta-zero product diagonal == lowest coefficient of p_a
    P = compute_P(3, 3)
    prod = p_lowest_term_product_route(3, 3)
    for a in range(4):
        chains = count_reduction_chains(3, a)
        assert chains == prod[a]
        assert chains == laurent_coeff(P[a], P[a].min_quarters())


def test_chains_simplified_equals_strengthened():
    for n, amax in [(3, 3), (5, 2)]:
        for a in range(amax + 1):
            simple = set(enumerate_reduction_chains(n, a, simplified=True))
            strong = set(enumerate_reduction_chains(n, a, simplified=False))
            assert simple == strong, (n, a)


def test_chains_structure():
    for chain in enumerate_reduction_chains(3, 2):
        assert chain[0] == (2, 4, 2, 4)
        assert chain[-1] == (0, 0, 0, 0)
        # strictly decreasing row sums
        sums = [sum(r) for r in chain]
        assert all(x > y for x, y in zip(sums, sums[1:]))


def test_chains_reject_even_n():
    with pytest.raises(ValueError):
        enumerate_reduction_chains(2, 1)


@pytest.mark.parametrize("n,a", [(3, 1), (3, 2), (3, 3), (5, 2)])
def test_delta_roundtrip(n, a):
    for chain in enumerate_reduction_chains(n, a):
        deltas = chain_to_deltas(chain, n)
        assert deltas_to_chain(deltas, n, len(chain) - 1) == chain


def test_delta_columns_are_partitions():
    for chain in enumerate_reduction_chains(3, 3):
        for col in chain_to_deltas(chain, 3):
            assert all(x >= y for x, y in zip(col, col[1:]))
            assert all(x > 0 for x in col)


def test_gamma_decomposition_examples():
    gamma, evens = gamma_decomposition(((1, 1), (1, 1)))
    assert gamma == (2,)
    assert evens == ((), ())
    gamma, evens = gamma_decomposition(((3, 1), (5, 1)))
    assert gamma == (2,)
    assert evens == ((2,), (4,))
    gamma, evens = gamma_decomposition(((4, 1), (2, 1)))
    assert gamma == (2, 1)
    assert evens == ((2,), ())
    gamma, evens = gamma_decomposition(((2, 2), (4,)))
    assert gamma == ()
    assert evens == ((2, 2), (4,))


def test_gamma_decomposition_rejects_mixed_parity():
    with pytest.raises(ValueError):
        gamma_decomposition(((1,), (2,)))
    # implicit zeros below a short partition count as even entries
    with pytest.raises(ValueError):
        gamma_decomposition(((1, 1), (1,)))


def test_gamma_decomposition_reconstructs():
    # subtraction route: evens + conjugate(gamma) rebuilds the tuple
    parts = [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2, 1)]
    for pt in itertools.product(parts, repeat=2):
        try:
            gamma, evens = gamma_decomposition(pt)
        except ValueError:
            continue
        gstar = conjugate(gamma)
        for orig, ev in zip(pt, evens):
            rebuilt = [
                (ev[j] if j < len(ev) else 0) + (gstar[j] if j < len(gstar) else 0)
                for j in range(max(len(ev), len(gstar)))
            ]
            while rebuilt and rebuilt[-1] == 0:
                rebuilt.pop()
            assert tuple(rebuilt) == tuple(orig), (pt, gamma, evens)


@pytest.mark.parametrize("n", [2, 4])
def test_neven_lowest_terms_and_evenness(n):
    P = compute_P(n, 5)
    prod = p_lowest_term_product_route(n, 5)
    for a in range(6):
        if a % 2:
            assert not P[a]
            assert prod[a] == 0
        else:
            assert laurent_coeff(P[a], P[a].min_quarters()) == prod[a]
