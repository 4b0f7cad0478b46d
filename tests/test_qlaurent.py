
import pytest
from hypothesis import given, settings, strategies as st

from mdslab.qlaurent import QL_ONE, QL_ZERO, QLaurent

elements = st.dictionaries(
    st.integers(-12, 12), st.integers(-50, 50), max_size=6
).map(QLaurent)


def laurent_coeff(a, quarters):
    """The coefficient of q^(quarters / 4) in a."""
    return a.terms.get(quarters, 0)


def deserialize(s):
    """The inverse of QLaurent.serialize."""
    pairs = (part.split(":") for part in s.split(";")) if s else ()
    return QLaurent({int(e): int(c) for e, c in pairs})


def test_constructors():
    assert QLaurent.const(3).terms == {0: 3}
    assert QLaurent.q_power(4).terms == {4: 1}
    assert not QLaurent.const(0)
    assert QL_ZERO == QLaurent()


@given(a=elements, b=elements, c=elements)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QL_ZERO == a
    assert a * QL_ONE == a
    assert a - a == QL_ZERO
    assert -(-a) == a


@given(a=elements)
@settings(max_examples=100, deadline=None)
def test_serialize_roundtrip(a):
    assert deserialize(a.serialize()) == a


def test_serialize_canonical_order():
    a = QLaurent({8: 2, -4: 1, 0: -3})
    assert a.serialize() == "-4:1;0:-3;8:2"


@given(a=elements)
@settings(max_examples=60, deadline=None)
def test_shift_is_q_power_multiplication(a):
    assert a.shift(4) == a * QLaurent.q_power(4)
    assert a.shift(3).shift(-3) == a


def test_eval_fraction():
    a = QLaurent({4: 2, -4: 1})  # 2q + 1/q
    with pytest.raises(ValueError, match="non-integer value 51/5"):
        a.eval_int(5)
    assert (a * QLaurent.q_power(4)).eval_int(5) == 51


def test_eval_rejects_fractional_exponents():
    with pytest.raises(ValueError, match="fractional exponent"):
        QLaurent({2: 1}).eval_int(5)


def test_subst_q_power():
    a = QLaurent({4: 3, 8: 1})  # 3q + q^2
    assert a.subst_q_power(-1) == QLaurent({-4: 3, -8: 1})
    assert a.subst_q_power(2) == QLaurent({8: 3, 16: 1})


def test_integrality_queries():
    assert QLaurent({0: 1, 8: 2}).is_integer_poly()
    assert not QLaurent({2: 1}).is_integer_poly()


def test_extremes_and_coeffs():
    a = QLaurent({-4: 1, 12: -2})
    assert a.min_quarters() == -4
    assert laurent_coeff(a, 12) == -2
    assert a.constant_coeff() == 0
    with pytest.raises(ValueError):
        QL_ZERO.min_quarters()


def pack(a, bits, step=4):
    """The packed pair (low, N) of ``a`` that ``QLaurent.unpack`` decodes,
    digits of ``bits`` bits, exponents in units of ``step`` quarters; zero
    is (0, 0). The oracle encoder of the tests below."""
    assert all(e % step == 0 for e in a.terms)
    if not a:
        return 0, 0
    low = min(a.terms) // step
    return low, sum(c << bits * (e // step - low) for e, c in a.terms.items())


def fit_bits(*xs):
    """The fewest digit bits that decode every coefficient of the xs:
    each |c| < 2^(bits-1)."""
    return 1 + max((abs(c).bit_length() for x in xs for c in x.terms.values()), default=0)


@pytest.mark.parametrize("step", [1, 2, 4, 6])
@given(a=elements, extra=st.integers(0, 70))
@settings(max_examples=60, deadline=None)
def test_pack_round_trip(step, a, extra):
    # negative, quarter-power and zero coefficients (QLaurent drops the
    # zeros, and the zero element packs to (0, 0)), at the fewest bits and
    # above them
    a = a.subst_q_power(step)  # every exponent a multiple of step
    bits = fit_bits(a) + extra
    low, packed = pack(a, bits, step)
    assert QLaurent.unpack(low, packed, bits, step) == a
    if a:
        assert low * step == a.min_quarters()
    else:
        assert (low, packed) == (0, 0)


@given(a=elements, b=elements, k=st.integers(-9, 9), m=st.integers(-5, 5))
@settings(max_examples=100, deadline=None)
def test_packed_sums_shifts_and_multiples_are_exact(a, b, k, m):
    # q^{1/4} -> 2^B is a ring map: aligning two lows is a left shift, and
    # only the decode of the result needs its coefficients below 2^(B-1)
    bits = fit_bits(a + b, a - b, a * QLaurent.const(m))
    (la, na), (lb, nb) = pack(a, bits, 1), pack(b, bits, 1)
    lo = min(la, lb)
    aligned_a, aligned_b = na << bits * (la - lo), nb << bits * (lb - lo)
    assert QLaurent.unpack(lo, aligned_a + aligned_b, bits, 1) == a + b
    assert QLaurent.unpack(lo, aligned_a - aligned_b, bits, 1) == a - b
    assert QLaurent.unpack(la + k, na, bits, 1) == a.shift(k)
    assert QLaurent.unpack(la, m * na, bits, 1) == a * QLaurent.const(m)


def test_unpack_reads_balanced_digits_below_half_the_base():
    bits = 5
    for terms in ({4: -16}, {4: -1, 8: 1}, {4: 15, 8: -15, 16: -16}):
        assert QLaurent.unpack(*pack(QLaurent(terms), bits), bits) == QLaurent(terms)
    # 16 = 2^(bits-1) is past the digit range: it reads as -16 carried up
    assert QLaurent.unpack(*pack(QLaurent({4: 16}), bits), bits) == QLaurent({4: -16, 8: 1})

