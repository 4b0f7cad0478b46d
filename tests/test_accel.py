import random

import numpy as np
import pytest

from mdslab import accel
from mdslab.fqpoly import Fq, field


def test_backend_name():
    assert accel.backend_name() == "numpy"


def test_sums_match_scalar_route():
    # the sweep factors g; the oracle is the Euclid-reciprocity symbol
    cases = [(5, [0, 1]), (5, [1, 0, 1]), (5, [2, 1, 0, 1])]
    cases += [(13, [0, 1]), (13, [5, 1, 1]), (13, [1, 2, 0, 1])]
    for q, coeffs in cases:
        fq = field(q)
        g = fq.poly(coeffs)
        sums = accel.symbol_sums_by_degree(fq, g, 3)
        for d in range(4):
            want = sum(fq.residue_symbol(f, g) for f in fq.monic_enum(d))
            assert int(sums[d]) == want, (g, d)


def monic_by_index(fq, d, idx):
    # the batch order encodes the d low coefficients base q, constant fastest
    coeffs = [(idx // fq.q**k) % fq.q for k in range(d)] + [1]
    return fq.poly(coeffs)


def index_of(fq, g):
    # g's position in monic_enum order, and so its row in symbol_rows:
    # monic_enum runs the top low coefficient fastest
    return sum(c * fq.q**k for k, c in enumerate(reversed(g[:-1])))


def assert_row_matches_oracle(fq, g, row, dmax):
    for d in range(dmax + 1):
        vals = row[fq.q**d : 2 * fq.q**d]
        assert len(vals) == fq.q**d
        for idx, v in enumerate(vals):
            f = monic_by_index(fq, d, idx)
            assert int(v) == fq.residue_symbol(f, g), (g, f)


def assert_rows_match_oracle(fq, g, dmax):
    # g's single-modulus row, the one symbol_sums_by_degree sums
    assert_row_matches_oracle(fq, g, accel._row(fq, g, dmax), dmax)


def test_symbol_rows_match_scalar_route():
    fq = field(5)
    rows = accel.symbol_rows(fq, 2, 2)
    assert rows.shape == (25, 2 * 25) and rows.dtype == np.int8
    for row, g in zip(rows, fq.monic_enum(2)):
        assert_row_matches_oracle(fq, g, row, 2)


def test_symbol_row_chunks_are_slices_of_all_rows():
    fq = field(5)
    rows = accel.symbol_rows(fq, 3, 2)
    chunks = [accel.symbol_rows(fq, 3, 2, start, start + 40) for start in range(0, 125, 40)]
    assert [len(c) for c in chunks] == [40, 40, 40, 5]
    assert np.array_equal(np.concatenate(chunks), rows)


def test_every_modulus_up_to_degree_3_matches_scalar_route():
    # every monic g of degree <= 3 at q=5: square factors, and primes of
    # degree above the sweep degree, included
    fq = field(5)
    for dg in range(4):
        rows = accel.symbol_rows(fq, dg, 3)
        for row, g in zip(rows, fq.monic_enum(dg)):
            assert_row_matches_oracle(fq, g, row, 3)


@pytest.mark.parametrize("q", [17, 29])
def test_sampled_moduli_match_scalar_route(q):
    fq = field(q)
    rng = random.Random(q)
    moduli = [fq.poly([rng.randrange(q) for _ in range(dg)] + [1]) for dg in (1, 2, 3, 4)]
    moduli += [fq.mul(g, g) for g in moduli[:2]]  # even exponents
    moduli += [fq.mul(moduli[0], moduli[3])]
    for g in moduli:
        assert_rows_match_oracle(fq, g, 2)


def test_public_routes_agree():
    # the sweep and the Euclid-reciprocity symbol are two routes to the same
    # values; the per-degree sums must also equal the sums of the batch rows
    fq = field(13)
    for g in [fq.poly([0, 1]), fq.poly([5, 1, 1]), fq.poly([1, 2, 0, 1])]:
        sums = accel.symbol_sums_by_degree(fq, g, 2)
        row = accel.symbol_rows(fq, len(g) - 1, 2)[index_of(fq, g)]
        for d in range(3):
            vals = row[13**d : 2 * 13**d]
            assert int(sums[d]) == int(vals.sum()), (g, d)
            for idx, v in enumerate(vals):
                f = monic_by_index(fq, d, idx)
                assert int(v) == fq.residue_symbol(f, g), (f, d)


def test_prime_degree_above_sweep_degree():
    # the prime's residues have more coefficients than the swept f
    fq = field(5)
    g = fq.poly([2, 0, 0, 1])  # irreducible cubic times nothing else
    vals = accel.symbol_rows(fq, 3, 1)[index_of(fq, g)][5:10]
    for idx, v in enumerate(vals):
        assert int(v) == fq.residue_symbol(monic_by_index(fq, 1, idx), g)


def test_trivial_modulus():
    fq = field(5)
    sums = accel.symbol_sums_by_degree(fq, (1,), 3)
    assert list(sums) == [1, 5, 25, 125]


def test_square_factor_kills_common_divisors():
    fq = field(5)
    t = fq.poly([0, 1])
    g = fq.mul(fq.mul(t, t), fq.poly([1, 1]))
    vals = accel.symbol_rows(fq, 3, 1)[index_of(fq, g)][5:10]
    for idx, v in enumerate(vals):
        assert int(v) == fq.residue_symbol(monic_by_index(fq, 1, idx), g)


def test_row_grows_to_a_larger_degree():
    # one Fq entry per prime; asking for a larger degree rebuilds its row
    fq = Fq(13)  # a fresh context: no other test has grown this row
    g = fq.poly([2, 0, 1])  # irreducible: -2 is not a square mod 13
    assert list(accel.symbol_sums_by_degree(fq, g, 1)) == [1, -1]
    assert len(fq._char_rows[g][2]) == 2 * 13
    assert_row_matches_oracle(fq, g, accel.symbol_rows(fq, 2, 3)[index_of(fq, g)], 3)
    assert len(fq._char_rows[g][2]) == 2 * 13**3


def test_oversized_sweep_is_refused_before_allocating():
    # 29^7 f's would need about 2e11 bytes; the estimate refuses it at once
    fq = field(29)
    with pytest.raises(ValueError, match="bytes"):
        accel.symbol_sums_by_degree(fq, fq.poly([0, 1]), 7)


def test_cache_drops_oldest_entries_past_its_bound(monkeypatch):
    monkeypatch.setattr(accel, "MAX_CACHE_BYTES", 500)  # five degree-2 entries
    fq = Fq(5)
    primes = fq._primes_of_degree(2)
    for p in primes:
        assert_rows_match_oracle(fq, p, 2)
        held = sum(a.nbytes for e in fq._char_rows.values() for a in e)
        assert fq._char_bytes == held <= 500
    assert primes[0] not in fq._char_rows and primes[-1] in fq._char_rows
    assert_rows_match_oracle(fq, primes[0], 2)  # rebuilt after eviction


@pytest.mark.parametrize("q, top", [(5, 3), (13, 2)])
def test_batched_prime_rows_match_scalar_route(q, top):
    # several primes of each degree built in one batch, in a fresh context
    fq = Fq(q)
    for e in range(1, top + 1):
        primes = fq._primes_of_degree(e)[:12]
        rows = accel._prime_rows(fq, primes, 2)
        for p in primes:
            T, chi, row = fq._char_rows[p]
            assert T.dtype == np.min_scalar_type(q**e + q) and len(T) == q**e
            assert row is rows[p] and len(row) == 2 * q**2
            assert_row_matches_oracle(fq, p, row, 2)


def test_grown_rows_reuse_tables_and_equal_a_fresh_build():
    fq = Fq(5)
    primes = fq._primes_of_degree(1) + fq._primes_of_degree(2)
    accel._prime_rows(fq, primes, 2)
    tables = {p: fq._char_rows[p][:2] for p in primes}
    grown = accel._prime_rows(fq, primes, 4)
    fresh = accel._prime_rows(Fq(5), primes, 4)
    for p in primes:
        assert all(a is b for a, b in zip(fq._char_rows[p][:2], tables[p]))
        assert np.array_equal(grown[p], fresh[p])
        assert np.array_equal(grown[p][: 2 * 25], accel._prime_rows(Fq(5), [p], 2)[p])


def test_char_bytes_match_entries_after_a_batch():
    fq = Fq(13)
    accel.symbol_rows(fq, 2, 2)
    entries = list(fq._char_rows.values())
    assert len(entries) == 13 + 78  # every prime of degree <= 2
    assert fq._char_bytes == sum(a.nbytes for e in entries for a in e)
    # each entry owns its arrays, so dropping one frees its bytes
    assert all(a.base is None for e in entries for a in e)


def test_oversized_symbol_rows_are_refused_before_allocating():
    # every monic quartic at q=29, to degree 4: about 2e12 bytes of rows and
    # tables; the estimate refuses it before any prime is sieved or built
    fq = Fq(29)
    with pytest.raises(ValueError, match="bytes"):
        accel.symbol_rows(fq, 4, 4)
    assert fq._sieve_degree == 0 and not fq._char_rows
