import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, symbols

from mdslab import fqpoly
from mdslab.fqpoly import ONE, ZERO, Fq, degree, field, is_monic


@pytest.fixture(scope="module")
def f5():
    return field(5)


# -- ring operations only the tests use


def poly(fq, coeffs):
    """The polynomial with these coefficients reduced mod q, lowest first."""
    out = [c % fq.q for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_add(fq, f, g):
    return poly(fq, [a + b for a, b in itertools.zip_longest(f, g, fillvalue=0)])


def poly_sub(fq, f, g):
    return poly(fq, [a - b for a, b in itertools.zip_longest(f, g, fillvalue=0)])


def poly_gcd(fq, f, g):
    """The monic gcd, or ZERO when f and g are both zero."""
    while g:
        f, g = g, fq.mod(f, g)
    return fq.to_monic(f)[0] if f else f


def poly_pow(fq, f, e):
    out = ONE
    for _ in range(e):
        out = fq.mul(out, f)
    return out


# -- oracles: the trial-division routes the sieve replaced, and the
# -- factorisation/Euler-criterion residue symbol


@functools.lru_cache(maxsize=None)
def trial_primes(q, d):
    """The monic primes of degree d, by trial division, in monic_enum order."""
    fq = field(q)  # arithmetic only: no cache of the context is read
    return tuple(f for f in fq.monic_enum(d) if d == 1 or is_irreducible(fq, f))


def is_irreducible(fq, f):
    d = degree(f)
    for e in range(1, d // 2 + 1):
        for p in trial_primes(fq.q, e):
            if not fq.mod(f, p):
                return False
    return True


def trial_factor(fq, f):
    """Fq.factor's result by trial division against trial_primes."""
    monic, unit = fq.to_monic(f)
    rem = monic
    fac = {}
    d = 1
    while degree(rem) > 0:
        if 2 * d > degree(rem):
            fac[rem] = fac.get(rem, 0) + 1
            break
        # rem has no prime factor of degree < d, so dividing out each
        # prime of degree d once leaves none of degree <= d; and once
        # deg rem < 2d, rem is itself prime, which the check above records.
        for p in trial_primes(fq.q, d):
            if 2 * d > degree(rem):
                break
            quo, r = fq.divmod(rem, p)
            while not r:
                fac[p] = fac.get(p, 0) + 1
                rem = quo
                if degree(rem) == 0:
                    break
                quo, r = fq.divmod(rem, p)
        else:
            d += 1
    return tuple(sorted(fac.items())), unit


def pow_mod(fq, f, e, m):
    out = ONE
    f = fq.mod(f, m)
    while e:
        if e & 1:
            out = fq.mod(fq.mul(out, f), m)
        f = fq.mod(fq.mul(f, f), m)
        e >>= 1
    return out


def squarefree_part(fq, f):
    """Product of primes dividing monic f to odd multiplicity."""
    if not is_monic(f):
        raise ValueError("squarefree_part requires a monic polynomial")
    fac, _ = fq.factor(f)
    out = ONE
    for p, e in fac:
        if e % 2:
            out = fq.mul(out, p)
    return out


def residue_symbol_factored(fq, f, g):
    """(f/g) by factoring g and applying Euler's criterion per prime."""
    if not is_monic(g):
        raise ValueError("modulus must be monic")
    if g == ONE:
        return 1
    if not f:
        return 0
    out = 1
    fac, _ = fq.factor(g)
    for p, e in fac:
        r = fq.mod(f, p)
        if not r:
            return 0
        s = pow_mod(fq, r, (fq.q ** degree(p) - 1) // 2, p)
        val = 1 if s == ONE else -1
        if e % 2:
            out *= val
    return out


def poly_strategy(q, max_deg=4, nonzero=False):
    coeffs = st.lists(st.integers(0, q - 1), min_size=0, max_size=max_deg + 1)
    s = coeffs.map(lambda cs: poly(field(q), cs))
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
    t = poly(f5, [0, 1])
    assert poly_add(f5, t, t) == (0, 2)
    assert f5.mul(t, t) == (0, 0, 1)
    assert poly_sub(f5, t, t) == ZERO
    q_, r = f5.divmod((1, 0, 1), (2, 1))
    assert poly_add(f5, f5.mul(q_, (2, 1)), r) == (1, 0, 1)
    assert degree(r) < degree((2, 1))


@given(f=st.data())
@settings(max_examples=60, deadline=None)
def test_divmod_identity(f):
    fq = field(5)
    a = f.draw(poly_strategy(5))
    b = f.draw(poly_strategy(5, nonzero=True))
    q_, r = fq.divmod(a, b)
    assert poly_add(fq, fq.mul(q_, b), r) == a
    assert r == () or degree(r) < degree(b)


def test_monic_enum_counts(f5):
    for d in range(4):
        polys = list(f5.monic_enum(d))
        assert len(polys) == 5**d
        assert all(is_monic(f) and degree(f) == d for f in polys)
        assert len(set(polys)) == len(polys)


def translate(fq, f, b):
    """f(t + b), by Horner's rule."""
    out = ZERO
    for c in reversed(f):
        out = poly_add(fq, fq.mul(out, poly(fq, [b, 1])), (c,))
    return out


def scale(fq, f, a):
    """a^(-deg f) f(a t), monic when f is."""
    d = degree(f)
    return poly(fq, [c * pow(a, k - d, fq.q) for k, c in enumerate(f)])


def orbit(fq, fs):
    """The orbit of the monic tuple fs under the group of ``monic_orbits``:
    f -> a^(-deg f) f(a t + b) over the nonzero squares a and every b in
    F_q when some degree is prime to q, the scalings (b = 0) alone when
    none is."""
    squares = [a for a in range(1, fq.q) if fq.legendre[a] == 1]
    shifts = range(fq.q) if any(degree(f) % fq.q for f in fs) else [0]
    return {tuple(translate(fq, scale(fq, f, a), b) for f in fs) for a in squares for b in shifts}


# the orbit sizes q (q - 1) / 2 / |stabiliser| that occur, where the
# stabilisers differ: at q = 13 the squares a with a^2 = 1 fix the constant
# of t^2 + c, those with a^3 = 1 that of t^3 + c
STABILISED = {(13, (2,)): {13, 39}, (13, (0, 3)): {13, 26, 39, 78}}


@pytest.mark.parametrize(
    "q, degrees",
    [(5, ()), (5, (0,)), (5, (2,)), (5, (0, 3)), (5, (2, 1)), (5, (1, 0, 2)), (13, (0, 2, 1)),
     # no pivot: every degree 0 or divisible by q
     (5, (5,)), (5, (0, 5)), (5, (0, 0)),
     *STABILISED,
     # several scalings a != 1 tied at once; at (5, 1) the pivot is the
     # second entry, after one of degree divisible by q
     (17, (2, 1)), (29, (2,)), (29, (1, 1)), (5, (5, 1))],
)
def test_monic_orbits_against_every_tuple(q, degrees):
    # the brute-force orbits of every representative partition the full
    # product: every tuple lies in exactly one, each has the yielded size,
    # and its representative comes first in product order among its tuples
    # with pivot coefficient 0 (every tuple when there is no pivot). The
    # representatives come in the order of the full product
    fq = field(q)
    orbits = list(fq.monic_orbits(degrees))
    reps = dict(orbits)
    full = list(itertools.product(*map(fq.monic_enum, degrees)))
    position = {fs: k for k, fs in enumerate(full)}
    assert sum(reps.values()) == len(full) == q ** sum(degrees)
    assert [fs for fs, _ in orbits] == [fs for fs in full if fs in reps]
    pivot = next((k for k, d in enumerate(degrees) if d % q), None)
    owner = {}
    for rep, size in orbits:
        members = orbit(fq, rep)
        assert len(members) == size, rep
        normal = [fs for fs in members if pivot is None or fs[pivot][-2] == 0]
        assert min(normal, key=position.get) == rep
        for fs in members:
            assert owner.setdefault(fs, rep) == rep, (fs, rep)
    assert owner.keys() == set(full)
    if (q, degrees) in STABILISED:
        assert set(reps.values()) == STABILISED[q, degrees]


def test_monic_orbits_refuses_a_negative_degree(f5):
    # refused before any tuple is yielded, not read as degree 0
    with pytest.raises(ValueError, match="negative degree"):
        next(iter(f5.monic_orbits((2, -1))))


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
            assert is_irreducible(f5, p)
            for _ in range(e):
                prod = f5.mul(prod, p)
        assert prod == f


@pytest.mark.parametrize("q, dmax", [(5, 5), (13, 3), (29, 2)])
def test_sieve_matches_trial_division_exhaustively(q, dmax):
    # a fresh context grows its sieve as the degrees come; every monic f,
    # and a non-monic multiple of each, against the trial-division oracles
    fq = Fq(q)
    for d in range(1, dmax + 1):
        assert fq._primes_of_degree(d) == trial_primes(q, d), d
        for f in fq.monic_enum(d):
            assert fq.factor(f) == trial_factor(fq, f), f
            g = fq.scalar_mul(q - 1, f)
            assert fq.factor(g) == trial_factor(fq, g), g
    assert fq._sieve_degree == dmax


def test_sieve_grown_step_by_step_equals_one_build():
    step, once = Fq(5), Fq(5)
    once._grow_sieve(5)
    for d in range(1, 6):
        step._grow_sieve(d)
        assert step._primes_of_degree(d) == once._primes_of_degree(d)
        for f in step.monic_enum(d):
            assert step.factor(f) == once.factor(f)
    assert np.array_equal(step._spf, once._spf) and np.array_equal(step._cof, once._cof)
    assert step._spf.dtype == np.uint16  # the smallest type for 2 * 5^5 indices


def test_oversized_sieve_is_refused_before_allocating(monkeypatch):
    # 2 * 29^6 entries of 4 bytes, twice: about 9.5e9 bytes
    def no_sieve(q, dmax):
        raise AssertionError("sieve built")

    fq = Fq(29)
    monkeypatch.setattr(fqpoly, "_sieve", no_sieve)
    with pytest.raises(ValueError, match=r"degree 6 needs about 9\.5e\+09 bytes"):
        fq._primes_of_degree(6)
    assert fq._sieve_degree == 0 and not fq._prime_cache


def test_factor_trial_divides_above_an_unaffordable_sieve(monkeypatch):
    fq = Fq(29)
    # (t^2 + 1)^6 = (t - 12)^6 (t + 12)^6: a sieve to degree 12, or to 6,
    # is above the limit, and the linear primes alone finish the job
    f = poly_pow(fq, (1, 0, 1), 6)
    assert fq.factor(f) == ((((12, 1), 6), ((17, 1), 6)), 1) == trial_factor(fq, f)
    assert fq._sieve_degree == 1
    # with the limit at a sieve to degree 2: quadratic x cubic factors, two
    # cubics need the primes of degree 3 and are refused
    monkeypatch.setattr(fqpoly, "MAX_SIEVE_BYTES", fqpoly._sieve_bytes(29, 2))
    fq = Fq(29)
    quad = next(f for f in ((c, 0, 1) for c in range(1, 29)) if is_irreducible(fq, f))
    cubics = [f for f in ((c, 1, 0, 1) for c in range(29)) if is_irreducible(fq, f)][:2]
    f = fq.mul(quad, cubics[0])
    assert fq.factor(f) == trial_factor(fq, f) and fq._sieve_degree == 2
    with pytest.raises(ValueError, match="degree 3 needs about"):
        fq.factor(fq.mul(*cubics))


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
    t = poly(f5, [0, 1])
    t2 = f5.mul(t, t)
    assert f5.is_squarefree(t)
    assert not f5.is_squarefree(t2)
    assert squarefree_part(f5, t2) == ONE
    assert squarefree_part(f5, f5.mul(t2, (1, 1))) == (1, 1)


def test_symbol_routes_agree_exhaustively(f5):
    # Euclidean reciprocity vs factorization/Euler criterion
    mods = [g for d in (1, 2) for g in f5.monic_enum(d)]
    args = [f for d in (0, 1, 2) for f in f5.monic_enum(d)]
    for g in mods:
        for f in args:
            assert f5.residue_symbol(f, g) == residue_symbol_factored(f5, f, g)


def test_symbol_reciprocity(f5):
    for f in f5.monic_enum(2):
        for g in f5.monic_enum(3):
            if poly_gcd(f5, f, g) == ONE:
                assert f5.residue_symbol(f, g) == f5.residue_symbol(g, f)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_symbol_multiplicative(data):
    fq = field(13)
    g = data.draw(poly_strategy(13, max_deg=2, nonzero=True))
    g = fq.to_monic(g)[0]
    if degree(g) == 0:
        g = poly(fq, [1, 1])
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
    t = poly(f5, [0, 1])
    assert f5.residue_symbol(t, f5.mul(t, (1, 1))) == 0
