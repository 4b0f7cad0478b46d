import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, symbols

from mdslab.fqpoly import ONE, ZERO, degree, field, is_monic


@pytest.fixture(scope="module")
def f5():
    return field(5)


def poly_strategy(q, max_deg=4, nonzero=False):
    coeffs = st.lists(st.integers(0, q - 1), min_size=0, max_size=max_deg + 1)
    s = coeffs.map(lambda cs: field(q).poly(cs))
    if nonzero:
        s = s.filter(lambda f: f != ())
    return s


def test_supported_moduli():
    for q in (5, 13, 17, 29):
        assert field(q).q == q
    with pytest.raises(ValueError):
        field(7)
    with pytest.raises(ValueError):
        field(9)


def test_basic_arithmetic(f5):
    t = f5.poly([0, 1])
    assert f5.add(t, t) == (0, 2)
    assert f5.mul(t, t) == (0, 0, 1)
    assert f5.sub(t, t) == ZERO
    q_, r = f5.divmod((1, 0, 1), (2, 1))
    assert f5.add(f5.mul(q_, (2, 1)), r) == (1, 0, 1)
    assert degree(r) < degree((2, 1))


@given(f=st.data())
@settings(max_examples=60, deadline=None)
def test_divmod_identity(f):
    fq = field(5)
    a = f.draw(poly_strategy(5))
    b = f.draw(poly_strategy(5, nonzero=True))
    q_, r = fq.divmod(a, b)
    assert fq.add(fq.mul(q_, b), r) == a
    assert r == () or degree(r) < degree(b)


def test_monic_enum_counts(f5):
    for d in range(4):
        polys = list(f5.monic_enum(d))
        assert len(polys) == 5**d
        assert all(is_monic(f) and degree(f) == d for f in polys)
        assert len(set(polys)) == len(polys)


def test_irreducible_counts(f5):
    # the function field analogue of the prime number theorem, exactly:
    # q^d = sum over e | d of e * (number of irreducibles of degree e)
    for d in range(1, 5):
        total = sum(
            e * len(f5._primes_of_degree(e)) for e in range(1, d + 1) if d % e == 0
        )
        assert total == 5**d


@pytest.mark.parametrize("q, dmax", [(5, 4), (13, 2)])
def test_primes_match_sympy(q, dmax):
    # independent oracle for the prime tables: sympy's irreducibility test
    fq = field(q)
    x = symbols("x")
    for d in range(1, dmax + 1):
        want = {
            f for f in fq.monic_enum(d) if Poly(f[::-1], x, modulus=q).is_irreducible
        }
        assert set(fq._primes_of_degree(d)) == want, d


def test_factor_roundtrip(f5):
    for f in f5.monic_enum(3):
        fac, unit = f5.factor(f)
        assert unit == 1
        prod = ONE
        for p, e in fac:
            assert f5._is_irreducible(p)
            for _ in range(e):
                prod = f5.mul(prod, p)
        assert prod == f


@pytest.mark.parametrize("q", [5, 13])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_factor_matches_sympy(q, data):
    # independent oracle: sympy's F_q[x] factorization, whose coefficients
    # come in the symmetric range -q/2..q/2, hence the reduction mod q
    fq = field(q)
    f = data.draw(poly_strategy(q, max_deg=6, nonzero=True))
    unit, factors = Poly(f[::-1], symbols("x"), modulus=q).factor_list()
    want = sorted(
        (tuple(int(c) % q for c in p.all_coeffs()[::-1]), e) for p, e in factors
    )
    assert fq.factor(f) == (tuple(want), int(unit) % q)


def test_squarefree(f5):
    t = f5.poly([0, 1])
    t2 = f5.mul(t, t)
    assert f5.is_squarefree(t)
    assert not f5.is_squarefree(t2)
    assert f5.squarefree_part(t2) == ONE
    assert f5.squarefree_part(f5.mul(t2, (1, 1))) == (1, 1)


def test_symbol_routes_agree_exhaustively(f5):
    # Euclidean reciprocity vs factorization/Euler criterion
    mods = [g for d in (1, 2) for g in f5.monic_enum(d)]
    args = [f for d in (0, 1, 2) for f in f5.monic_enum(d)]
    for g in mods:
        for f in args:
            assert f5.residue_symbol(f, g) == f5.residue_symbol_factored(f, g)


def test_symbol_reciprocity(f5):
    for f in f5.monic_enum(2):
        for g in f5.monic_enum(3):
            if f5.gcd(f, g) == ONE:
                assert f5.residue_symbol(f, g) == f5.residue_symbol(g, f)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_symbol_multiplicative(data):
    fq = field(13)
    g = data.draw(poly_strategy(13, max_deg=2, nonzero=True))
    g = fq.to_monic(g)[0]
    if degree(g) == 0:
        g = fq.poly([1, 1])
    a = data.draw(poly_strategy(13, max_deg=2))
    b = data.draw(poly_strategy(13, max_deg=2))
    lhs = fq.residue_symbol(fq.mul(a, b), g)
    assert lhs == fq.residue_symbol(a, g) * fq.residue_symbol(b, g)


def test_constant_symbol_rule(f5):
    # (c/g) = legendre(c)^deg g
    for c in range(1, 5):
        for g in f5.monic_enum(2):
            assert f5.residue_symbol((c,), g) == f5.legendre[c] ** 2
        for g in f5.monic_enum(3):
            assert f5.residue_symbol((c,), g) == f5.legendre[c] ** 3


def test_symbol_vanishes_on_common_factor(f5):
    t = f5.poly([0, 1])
    assert f5.residue_symbol(t, f5.mul(t, (1, 1))) == 0
