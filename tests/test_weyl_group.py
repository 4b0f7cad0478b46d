"""The residue functional equations generate the affine Weyl group of type Ã.

The generators are read from ``residue.fe_generators``: the swaps x_i ->
1/x_i and, for n even, ``edge``. They are checked as a Coxeter system whose
graph is a cycle. Elements are enumerated breadth-first over matrices, so
the length of an element is its distance from the identity. The count of
each length must match Bott's Poincaré series of the affine Weyl group.
``cycle-squared`` is shown to have infinite order, exactly, and to rotate
the cycle.

Each generator s trades T(s): -1 at each removed factor (alpha, beta), +1
at (-alpha, beta). A word trades T(w1 w2) = T(w1) + w1 T(w2), with w1
acting on alpha. This is w(F) - F for the factor multiset F, so it must not
depend on the word; the enumeration asserts that at every product.
"""

from collections import Counter

import pytest
import sympy

from mdslab.residue import fe_generators

HALF = 2  # beta = 1/2 in quarter units


def coxeter_generators(n):
    """The swaps and, for n even, ``edge``: key -> (matrix, trade), in table
    order. In that order each generator is joined to the next, and the last
    one to the first."""
    return {
        key: (tuple(map(tuple, pair[0])), trade(pair[1]))
        for key, pair in fe_generators(n).items()
        if key != "cycle-squared"
    }


def trade(removed):
    out = Counter()
    for alpha, beta in removed:
        out[(alpha, beta)] -= 1
        out[(tuple(-a for a in alpha), beta)] += 1
    return out


def identity(k):
    return tuple(tuple(int(r == c) for c in range(k)) for r in range(k))


def mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def apply(mat, alpha):
    return tuple(sum(x * a for x, a in zip(row, alpha)) for row in mat)


def order(mat, limit=12):
    """The least j <= limit with mat^j = I, or None."""
    power = mat
    for j in range(1, limit + 1):
        if power == identity(len(mat)):
            return j
        power = mul(power, mat)
    return None


def compose(m1, t1, t2):
    out = Counter(t1)
    for (alpha, beta), count in t2.items():
        out[(apply(m1, alpha), beta)] += count
    return Counter({key: count for key, count in out.items() if count})


def elements(gens, length):
    """Every element of length <= ``length``: matrix -> (length, trade,
    least number of ``edge`` letters in a reduced word)."""
    k = len(next(iter(gens.values()))[0])
    found = {identity(k): (0, Counter(), 0)}
    layer = [identity(k)]
    for ell in range(1, length + 1):
        new = {}
        for g in layer:
            _, tg, eg = found[g]
            for key, (mat, ts) in gens.items():
                h = mul(g, mat)
                th = compose(g, tg, ts)
                edges = eg + (key == "edge")
                if h in found:
                    assert found[h][1] == th, "the trade depends on the word"
                    if found[h][0] == ell:
                        found[h] = (ell, th, min(found[h][2], edges))
                    continue
                found[h] = (ell, th, edges)
                new[h] = None
        layer = list(new)
    return found


def bott(r, length):
    """Coefficients to t^length of prod_{i=1}^{r-1} (1 + ... + t^i) / (1 - t^i),
    the Poincaré series of the affine Weyl group Ã_{r-1}."""
    series = [1] + [0] * length
    for i in range(1, r):
        series = [sum(series[j - d] for d in range(min(i, j) + 1)) for j in range(length + 1)]
        for j in range(i, length + 1):  # divide by 1 - t^i
            series[j] += series[j - i]
    return series


@pytest.mark.parametrize("n", [3, 5, 7, 9, 6, 8, 10])
def test_generators_are_unimodular_involutions_fixing_delta(n):
    gens = coxeter_generators(n)
    k = len(next(iter(gens.values()))[0])
    for key, (mat, _) in gens.items():
        assert mat != identity(k) and mul(mat, mat) == identity(k), key
        assert apply(mat, (1,) * k) == (1,) * k, key
        assert abs(sympy.Matrix(mat).det()) == 1, key


@pytest.mark.parametrize("n", [5, 7, 9, 6, 8, 10])
def test_coxeter_graph_is_a_cycle(n):
    gens = coxeter_generators(n)
    keys = list(gens)
    r = len(keys)
    assert r >= 3
    if n % 2 == 0:
        assert keys[-1] == "edge"
    for a in range(r):
        for b in range(a + 1, r):
            adjacent = b - a in (1, r - 1)
            m = order(mul(gens[keys[a]][0], gens[keys[b]][0]))
            assert m == (3 if adjacent else 2), (keys[a], keys[b], m)


def test_n3_pair_has_infinite_order():
    # M - I is nonzero and nilpotent, so M^j = I + j(M - I) is never I
    gens = coxeter_generators(3)
    m = sympy.Matrix(mul(gens[0][0], gens[2][0]))
    eye = sympy.eye(2)
    assert m != eye
    assert (m - eye) ** 2 == sympy.zeros(2)


def test_bott_series():
    assert bott(3, 6)[1:] == [3, 6, 9, 12, 15, 18]
    assert bott(4, 6)[1:] == [4, 10, 20, 34, 52, 74]
    assert bott(5, 6)[1:] == [5, 15, 35, 70, 125, 205]


@pytest.mark.parametrize("n", [5, 7, 9, 6, 8, 10])
def test_word_counts_match_bott(n):
    gens = coxeter_generators(n)
    counts = Counter(ell for ell, _, _ in elements(gens, 6).values())
    assert [counts[ell] for ell in range(7)] == bott(len(gens), 6)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_cycle_squared_has_infinite_order(n):
    """The characteristic polynomial (x - 1)(x^{k-1} - 1) has every root a
    (k-1)-th root of unity. A matrix of finite order is diagonalisable, so
    its (k-1)-th power would be I; it is not."""
    mat, _ = fe_generators(n)["cycle-squared"]
    k = len(mat)
    m = sympy.Matrix(mat)
    x = sympy.Symbol("x")
    assert sympy.expand(m.charpoly(x).as_expr() - (x - 1) * (x ** (k - 1) - 1)) == 0
    assert m ** (k - 1) != sympy.eye(k)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_cycle_squared_rotates_the_coxeter_cycle(n):
    # M s M^-1 is the next generator around the cycle: M acts on the group
    # as the rotation of its diagram
    gens = coxeter_generators(n)
    keys = list(gens)
    m = sympy.Matrix(fe_generators(n)["cycle-squared"][0])
    for key, after in zip(keys, keys[1:] + keys[:1]):
        assert m * sympy.Matrix(gens[key][0]) * m.inv() == sympy.Matrix(gens[after][0]), key


@pytest.mark.parametrize("n", [3, 5, 7])
def test_traded_factors_n_odd(n):
    # 4 per inverted root: removed and added, at beta = 0 and beta = 1
    for ell, t, _ in elements(coxeter_generators(n), 5).values():
        assert sum(map(abs, t.values())) == 4 * ell


@pytest.mark.parametrize("n", [6, 8, 10])
def test_traded_factors_n_even(n):
    """The beta = 0 and beta = 1 factors trade 4 per unit of length, as for
    n odd. The beta = 1/2 factors trade 4 per ``edge`` letter, for the
    least number of them in a reduced word; so 4 l on the parabolic
    subgroup of the swaps, and 4 l + 4 off it up to length 3."""
    for ell, t, edges in elements(coxeter_generators(n), 5).values():
        assert sum(abs(c) for (_, beta), c in t.items() if beta != HALF) == 4 * ell
        assert sum(abs(c) for (_, beta), c in t.items() if beta == HALF) == 4 * edges


def test_traded_factor_tallies_n8():
    tallies = [Counter() for _ in range(4)]
    for ell, t, _ in elements(coxeter_generators(8), 3).values():
        tallies[ell][sum(map(abs, t.values()))] += 1
    assert tallies[1:] == [{4: 3, 8: 1}, {8: 5, 12: 5}, {12: 6, 16: 14}]
