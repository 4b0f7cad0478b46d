
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
