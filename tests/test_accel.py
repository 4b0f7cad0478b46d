import random

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


def test_symbols_of_degree_match_scalar_route():
    fq = field(5)
    g = fq.poly([3, 1, 1])
    for d in range(3):
        vals = accel.symbols_of_degree(fq, g, d)
        assert len(vals) == 5**d
        for idx, v in enumerate(vals):
            f = monic_by_index(fq, d, idx)
            assert int(v) == fq.residue_symbol(f, g), (f, d)


def assert_rows_match_oracle(fq, g, dmax):
    for d in range(dmax + 1):
        vals = accel.symbols_of_degree(fq, g, d)
        assert len(vals) == fq.q**d
        for idx, v in enumerate(vals):
            f = monic_by_index(fq, d, idx)
            assert int(v) == fq.residue_symbol(f, g), (g, f)


def test_every_modulus_up_to_degree_3_matches_scalar_route():
    # every monic g of degree <= 3 at q=5: square factors, and primes of
    # degree above the sweep degree, included
    fq = field(5)
    for dg in range(4):
        for g in fq.monic_enum(dg):
            assert_rows_match_oracle(fq, g, 3)


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
        for d in range(3):
            vals = accel.symbols_of_degree(fq, g, d)
            assert int(sums[d]) == int(vals.sum()), (g, d)
            for idx, v in enumerate(vals):
                f = monic_by_index(fq, d, idx)
                assert int(v) == fq.residue_symbol(f, g), (f, d)


def test_prime_degree_above_sweep_degree():
    # the prime's residues have more coefficients than the swept f
    fq = field(5)
    g = fq.poly([2, 0, 0, 1])  # irreducible cubic times nothing else
    vals = accel.symbols_of_degree(fq, g, 1)
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
    vals = accel.symbols_of_degree(fq, g, 1)
    for idx, v in enumerate(vals):
        assert int(v) == fq.residue_symbol(monic_by_index(fq, 1, idx), g)


def test_row_grows_to_a_larger_degree():
    # one Fq entry per prime; asking for a larger degree rebuilds its row
    fq = Fq(13)  # a fresh context: no other test has grown this row
    g = fq.poly([2, 0, 1])  # irreducible: -2 is not a square mod 13
    assert list(accel.symbol_sums_by_degree(fq, g, 1)) == [1, -1]
    assert len(fq._char_rows[g][2]) == 2 * 13
    assert_rows_match_oracle(fq, g, 3)
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
