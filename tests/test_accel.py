from mdslab import accel
from mdslab.fqpoly import field


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


def test_backends_agree():
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


def test_numpy_backend_narrow_rows():
    # sweep degree smaller than the prime degree exercises the padding path
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
