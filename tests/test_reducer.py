import gc
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mdslab.qlaurent import QL_ONE, QL_ZERO, QLaurent
from mdslab.reducer import (
    DiagonalSeed,
    SeedExhausted,
    check_dominance,
    check_lambda_fe,
    check_reversal,
    compute_P,
    local_weight,
    local_weight_value,
    reduce_coeff,
    tuples_with_sum_at_most,
)
from mdslab.series import check_diagonal_determination


def check_recurrences_everywhere(t, seed):
    """Both recurrences hold at every position, not just the reduction one."""
    t = tuple(t)
    n1 = len(t)
    c = reduce_coeff(t, seed)
    for i in range(n1):
        s = t[i - 1] + t[(i + 1) % n1]
        ai = t[i]

        def at(val):
            return reduce_coeff(t[:i] + (val,) + t[i + 1 :], seed) if val >= 0 else QL_ZERO

        if s % 2:
            rhs = at(s - 1 - ai).shift(4 * (ai - (s - 1) // 2))
        else:
            rhs = at(ai - 1).shift(4) + (at(s - ai) - at(s - ai - 1).shift(4)).shift(
                4 * (ai - s // 2)
            )
        if c != rhs:
            return False
    return True


def _max_violation(t):
    """Position maximizing 2*a_i - (a_{i-1} + a_{i+1}), ties to smallest i.

    Returns (i, 2*a_i - s). On a cycle, if every 2*a_i <= s then the tuple
    is constant, so a positive violation exists for non-diagonal tuples.
    """
    m = len(t)
    best_i, best_v = 0, 2 * t[0] - t[-1] - t[1 % m]
    for i in range(1, m):
        v = 2 * t[i] - t[i - 1] - t[(i + 1) % m]
        if v > best_v:
            best_i, best_v = i, v
    return best_i, best_v


def max_violation_reduce(t, seed, memo):
    """Oracle: the reduction that always picks the largest violation.

    It reaches the diagonals along other paths than ``reduce_coeff``, so
    agreement tests that the recurrences are consistent across positions.
    ``memo`` is the oracle's own table, keyed by index tuple.
    """
    t = tuple(t)
    if any(a < 0 for a in t):
        return QL_ZERO
    n1 = len(t)
    stack = [t]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        if len(set(cur)) <= 1:
            memo[cur] = seed.diagonal(cur[0])
            stack.pop()
            continue
        i, v = _max_violation(cur)
        assert v > 0, f"convexity violation at {cur}"
        s = cur[i - 1] + cur[(i + 1) % n1]
        ai = cur[i]

        def with_i(val):
            return cur[:i] + (val,) + cur[i + 1 :]

        if s % 2:
            tgt = s - 1 - ai
            if tgt < 0:
                memo[cur] = QL_ZERO
                stack.pop()
                continue
            sub = memo.get(with_i(tgt))
            if sub is None:
                stack.append(with_i(tgt))
                continue
            memo[cur] = sub.shift(4 * (ai - (s - 1) // 2))
            stack.pop()
        else:
            vals = []
            missing = False
            for d in [with_i(ai - 1), with_i(s - ai), with_i(s - ai - 1)]:
                if any(x < 0 for x in d):
                    vals.append(QL_ZERO)
                    continue
                sub = memo.get(d)
                if sub is None:
                    stack.append(d)
                    missing = True
                else:
                    vals.append(sub)
            if missing:
                continue
            c1, c2, c3 = vals
            memo[cur] = c1.shift(4) + (c2 - c3.shift(4)).shift(4 * (ai - s // 2))
            stack.pop()
    return memo[t]


def tau(t):
    """sum_i a_{i-1} a_i mod 2, round the cycle: the parity invariant."""
    return sum(t[i - 1] * t[i] for i in range(len(t))) % 2


def oracle_P(n, max_degree):
    """P read the old way, as the oracle: the largest-violation reduction of
    the unrotated index (a, 2a, ...) on the unit seed, with no parity rule.
    Returns P and the oracle's table."""
    seed = DiagonalSeed.unit(2 * max_degree + 1)
    table = {}
    p = []
    for a in range(max_degree + 1):
        c = max_violation_reduce(tuple(a * (1 + i % 2) for i in range(n + 1)), seed, table)
        p.append(c.shift(-4 * a * (n + 1)) if n % 2 else c.shift(6 * a - 4 * a * (n + 2)))
    return p, table


PROBE = [QL_ONE] + [QLaurent.const(k + 2) for k in range(12)]  # the fe suite's probe seed


def unit_seed_of_compute_P(monkeypatch, n, max_degree):
    """Run compute_P(n, max_degree) and return the unit seed it filled."""
    seeds = []
    make_unit = DiagonalSeed.unit

    def recording_unit(length):
        seeds.append(make_unit(length))
        return seeds[-1]

    monkeypatch.setattr(DiagonalSeed, "unit", staticmethod(recording_unit))
    compute_P(n, max_degree)
    (seed,) = seeds
    return seed


@pytest.fixture()
def unit():
    return DiagonalSeed.unit(40)


def test_diagonal_tuples_hit_seed(unit):
    assert reduce_coeff((0, 0, 0), unit) == QL_ONE
    assert reduce_coeff((2, 2, 2), unit) == QL_ZERO
    free = DiagonalSeed([QL_ONE, QLaurent.const(7)], name="free")
    assert reduce_coeff((1, 1, 1, 1), free) == QLaurent.const(7)


def test_known_small_reductions(unit):
    assert reduce_coeff((0, 1, 0), unit).serialize() == "4:1"
    assert reduce_coeff((1, 1, 0), unit) == QL_ZERO
    assert reduce_coeff((1, 0, 1), unit) == QL_ZERO
    assert reduce_coeff((0, 3, 0), unit).serialize() == "12:1"


def test_unit_tuples_are_q_powers(unit):
    for n1 in (3, 4):
        for i in range(n1):
            for a in range(1, 5):
                t = tuple(a if j == i else 0 for j in range(n1))
                assert reduce_coeff(t, unit) == QLaurent.q_power(4 * a)


def test_negative_index_is_zero(unit):
    assert reduce_coeff((-1, 0, 0), unit) == QL_ZERO


def test_seed_exhaustion():
    short = DiagonalSeed([QL_ONE], name="short")
    with pytest.raises(SeedExhausted):
        reduce_coeff((2, 2, 2), short)


def test_memo_keyed_by_seed_identity():
    s1 = DiagonalSeed.unit(10)
    s2 = DiagonalSeed([QL_ONE, QLaurent.const(3)] + [QL_ZERO] * 9, name="other")
    t = (1, 1, 1)
    assert reduce_coeff(t, s1) != reduce_coeff(t, s2)


def test_seeds_with_equal_values_are_distinct_and_hashable():
    # equality must not read the memos, which fill as a seed reduces
    s1, s2 = DiagonalSeed.unit(4), DiagonalSeed.unit(4)
    for _ in range(2):
        assert s1 != s2 and s1 == s1
        assert len({s1, s2}) == 2
        reduce_coeff((2, 1, 0), s1)
    assert s1._memo and not s2._memo


def test_recurrence_closure_everywhere(unit):
    # both recurrences hold at every position, not just the reduction one
    for t in tuples_with_sum_at_most(3, 7):
        assert check_recurrences_everywhere(t, unit)
    for t in tuples_with_sum_at_most(4, 6):
        assert check_recurrences_everywhere(t, unit)


def test_nondiagonal_always_reducible(unit):
    # terminal states are exactly the diagonals: every non-diagonal tuple
    # has a position where the reduction strictly applies
    for t in tuples_with_sum_at_most(4, 10):
        if len(set(t)) > 1:
            assert _max_violation(t)[1] > 0


def pipeline_seed(n, degree=8):
    from mdslab.residue import run_pipeline

    return run_pipeline(n, degree).seed


def test_dominance_small(unit):
    seed = pipeline_seed(2)
    for t in tuples_with_sum_at_most(3, 6):
        report = check_dominance(t, seed)
        assert report["status"] in ("pass", "boundary"), report


def test_dominance_exceptions():
    seed = pipeline_seed(2)
    # without the exception (0,0,0) would fail (c = 1) and (1,0,0) would
    # sit at the boundary (c = q)
    assert reduce_coeff((0, 0, 0), seed).min_quarters() < 2
    assert reduce_coeff((1, 0, 0), seed).min_quarters() == 4
    assert check_dominance((0, 0, 0), seed)["status"] == "pass"
    assert check_dominance((1, 0, 0), seed)["status"] == "pass"


def test_dominance_flags_a_monomial_at_the_bound():
    # c at (1, 1, 1) is the diagonal value q^2, of degree exactly (3 + 1)/2
    report = check_dominance((1, 1, 1), DiagonalSeed([QL_ONE, QLaurent.q_power(8)]))
    assert report == {
        "status": "boundary",
        "witness": "monomial exactly at degree (sum+1)/2 for (1, 1, 1)",
    }


def test_integrality_with_pipeline_seed():
    seed3 = pipeline_seed(3)
    for t in tuples_with_sum_at_most(4, 8):
        c = reduce_coeff(t, seed3)
        assert all(e % 4 == 0 and e >= 0 for e in c.terms), t
    seed2 = pipeline_seed(2)
    for t in tuples_with_sum_at_most(3, 8):
        c = reduce_coeff(t, seed2)
        assert all(e % 2 == 0 and e >= 0 for e in c.terms), t


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_coefficients_have_the_diagram_symmetry(n):
    # c_t is unchanged by the rotations and the reversal of t, the
    # symmetries of the cyclic diagram, although the reduction always picks
    # the first violating position; one rotation and the reversal generate
    # them. The index sum falls along every reduction, so diagonals a with
    # (n + 1) a <= 8 suffice.
    seed = pipeline_seed(n, 2)
    for t in tuples_with_sum_at_most(n + 1, 8):
        c = reduce_coeff(t, seed)
        assert reduce_coeff(t[1:] + t[:1], seed) == c, t
        assert reduce_coeff(t[::-1], seed) == c, t


def test_lambda_fe(unit):
    seed = pipeline_seed(2)
    for fixed in tuples_with_sum_at_most(3, 5):
        for i in range(3):
            report = check_lambda_fe(fixed, i, seed)
            assert report["status"] == "pass", report


@pytest.mark.parametrize("fixed, i", [((1, 0, 2), 1), ((2, 0, 2), 1), ((0, 3, 0), 0)])
def test_lambda_fe_fails_on_a_bumped_slice(fixed, i):
    # the memoized slice value at each a in turn is off by q; the check
    # must notice every one but the self-paired middle of an odd slice
    base = pipeline_seed(2)
    s = fixed[i - 1] + fixed[(i + 1) % 3]
    slice_at = [fixed[:i] + (a,) + fixed[i + 1 :] for a in range(2 * s + 1 + s % 2)]
    for a, t in enumerate(slice_at):
        if s % 2 and 2 * a == s - 1:
            continue
        seed = DiagonalSeed(list(base.values))
        for u in slice_at:
            reduce_coeff(u, seed)
        seed._memo[t] += QLaurent.q_power(4)
        assert check_lambda_fe(fixed, i, seed)["status"] == "fail", (a, fixed, i)
    assert check_lambda_fe(fixed, i, DiagonalSeed(list(base.values)))["status"] == "pass"


@pytest.mark.parametrize("n", [2, 3])
def test_lambda_fe_ignores_the_entry_at_its_slot(n):
    # verify checks each slice once for every fixed that differs only at
    # slot i; on a seed bumped at the top of the slice the witnesses agree too
    base = pipeline_seed(n)
    statuses = set()
    for fixed in tuples_with_sum_at_most(n + 1, 3):
        for i in range(n + 1):
            other = fixed[:i] + (fixed[i] + 1,) + fixed[i + 1 :]
            s = fixed[i - 1] + fixed[(i + 1) % (n + 1)]
            top = fixed[:i] + (2 * s + s % 2,) + fixed[i + 1 :]
            bumped = DiagonalSeed(list(base.values))
            for a in range(2 * s + 1 + s % 2):
                reduce_coeff(fixed[:i] + (a,) + fixed[i + 1 :], bumped)
            bumped._memo[top] += QLaurent.q_power(4)
            for seed in (base, bumped):
                report = check_lambda_fe(fixed, i, seed)
                assert check_lambda_fe(other, i, seed) == report, (fixed, i)
                statuses.add(report["status"])
    assert statuses == {"pass", "fail"}


# (lift of an int into the ring, q^j in the ring) at q = 5; QLaurent's q is
# formal, q^j = q^(4j/4)
REVERSAL_RINGS = {
    "int": (int, lambda j: 5**j),
    "Fraction": (Fraction, lambda j: Fraction(5) ** j),
    "QLaurent": (QLaurent.const, lambda j: QLaurent.q_power(4 * j)),
}


@pytest.mark.parametrize("ring", sorted(REVERSAL_RINGS))
def test_check_reversal_fails_on_each_perturbed_coefficient(ring):
    # c_k = q^{k-2} c_{4-k} and a zero tail past m = 4. Bumping any single
    # coefficient but the self-paired middle one breaks the reversal, and
    # qpow is never asked for a negative power.
    lift, qpow = REVERSAL_RINGS[ring]
    asked = []

    def recording(j):
        asked.append(j)
        return qpow(j)

    low = [lift(1), lift(3), lift(7)]
    good = low + [qpow(k - 2) * low[4 - k] for k in (3, 4)] + [lift(0)]
    assert check_reversal(good, 4, recording)["status"] == "pass"
    for k in range(len(good)):
        bumped = good[:k] + [good[k] + lift(1)] + good[k + 1 :]
        want = "pass" if k == 2 else "fail"
        assert check_reversal(bumped, 4, recording)["status"] == want, (ring, k)
    assert asked and min(asked) >= 0


def test_compute_P_spec_values():
    p = compute_P(3, 4)
    assert p[0] == QL_ONE
    assert p[1] == QL_ONE
    assert p[2].serialize() == "0:4;8:-1"
    # n even: only even-degree terms survive
    for n in (2, 4):
        for a, c in enumerate(compute_P(n, 5)):
            if a % 2:
                assert not c


def test_local_weight_polynomiality():
    seed = pipeline_seed(2)
    for t in tuples_with_sum_at_most(3, 5):
        h = local_weight(1, t, seed)
        assert all(e % 4 == 0 and e >= 0 for e in h.terms)
    # concrete values at primes of degree 1 and 2 over F_5
    assert local_weight_value(1, 5, (1, 0, 0), seed) == 1
    assert local_weight_value(1, 5, (2, 2, 0), seed) == 5
    assert local_weight_value(2, 5, (2, 2, 0), seed) == 25
    assert local_weight_value(1, 5, (2, 2, 2), seed) == 75


def test_local_weight_detects_violation():
    bad = DiagonalSeed([QL_ONE, QLaurent.q_power(16)] + [QL_ZERO] * 8, name="bad")
    with pytest.raises(ValueError, match="local-to-global"):
        local_weight(1, (1, 1, 1), bad)


def test_diagonal_determination():
    s1 = pipeline_seed(2)
    s2 = DiagonalSeed(PROBE, name="probe")
    report = check_diagonal_determination(2, s1, s2, 6)
    assert report["status"] == "pass", report


def test_diagonal_determination_fails_on_an_off_diagonal_term(monkeypatch):
    from mdslab import series

    s1 = pipeline_seed(2)
    s2 = DiagonalSeed(PROBE, name="probe")
    real = series.reduce_coeff

    def bumped(t, seed):
        c = real(t, seed)
        return c + QL_ONE if seed is s1 and t == (1, 0, 0) else c

    monkeypatch.setattr(series, "reduce_coeff", bumped)
    report = check_diagonal_determination(2, s1, s2, 6)
    assert report == {"status": "fail", "witness": "off-diagonal ratio term at (1, 0, 0)"}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_memo_matches_max_violation_oracle(monkeypatch, n):
    seed = unit_seed_of_compute_P(monkeypatch, n, 8)
    oracle = {}
    for t, c in seed._memo.items():
        assert c == max_violation_reduce(t, seed, oracle), t


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_memo_values_hold_no_zero_coefficient(monkeypatch, n):
    # reduce_coeff builds shifted values without QLaurent's filter pass
    seed = unit_seed_of_compute_P(monkeypatch, n, 8)
    for t, c in seed._memo.items():
        assert type(c) is QLaurent, t
        assert 0 not in c.terms.values(), t
        assert c == QLaurent(dict(c.terms)), t


def test_first_violation_memo_size(monkeypatch):
    # the largest-violation rule filled 137,167 entries here, this reduction
    # 20,282
    seed = unit_seed_of_compute_P(monkeypatch, 6, 8)
    assert len(seed._memo) <= 20_300


@pytest.mark.parametrize("n", range(2, 8))
def test_every_dependency_keeps_tau(n):
    # the lemma of the parity rule: at every violating position, not only
    # the first, each index that the odd or the even recurrence names (a
    # negative one too) has the tau of t
    m = n + 1
    for t in tuples_with_sum_at_most(m, 8):
        for i in range(m):
            ai, s = t[i], t[i - 1] + t[(i + 1) % m]
            if 2 * ai <= s:
                continue
            for b in [s - 1 - ai] if s % 2 else [ai - 1, s - ai, s - ai - 1]:
                assert tau(t[:i] + (b,) + t[i + 1 :]) == tau(t), (t, i, b)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_oracle_zeroes_every_tau_one_index_at_n_even(n):
    # with no shortcut, every tau = 1 entry of the unit-seed table (P's
    # indices to D = 8) and of the pipeline-seed table (sum <= 8) is zero,
    # and so is every odd coefficient of P
    p, table = oracle_P(n, 8)
    assert all(not p[a] for a in range(1, 9, 2))
    seed, pipe_table = pipeline_seed(n, 2), {}
    for t in tuples_with_sum_at_most(n + 1, 8):
        max_violation_reduce(t, seed, pipe_table)
    for memo in (table, pipe_table):
        odd = [t for t in memo if tau(t)]
        assert odd and all(not memo[t] for t in odd)


@pytest.mark.parametrize("n, count", [(3, 140), (5, 1008)])
def test_oracle_zeroes_every_tau_one_index_at_n_odd(n, count):
    # for n odd no diagonal has tau = 1, so the rule needs no seed condition
    seed, table = DiagonalSeed(PROBE), {}
    odd = [t for t in tuples_with_sum_at_most(n + 1, 8) if tau(t)]
    assert len(odd) == count
    for t in odd:
        assert not max_violation_reduce(t, seed, table), t
        assert not reduce_coeff(t, seed), t


def test_tau_one_index_is_read_where_the_seed_has_an_odd_diagonal():
    # at n = 2 the probe seed's d_1 is nonzero, so the rule covers nothing
    seed, table = DiagonalSeed(PROBE), {}
    live = 0
    for t in tuples_with_sum_at_most(3, 8):
        c = max_violation_reduce(t, seed, table)
        assert reduce_coeff(t, seed) == c, t
        live += bool(tau(t) and c)
    assert live == 25


def test_parity_rule_keeps_seed_exhaustion():
    # (1, 1, 2) has tau = 1 and its chains reach d_1, which this seed does
    # not hold: the rule reads only seeds that hold every reachable diagonal
    short = DiagonalSeed([QL_ONE], name="short")
    assert tau((1, 1, 2)) == 1
    with pytest.raises(SeedExhausted):
        reduce_coeff((1, 1, 2), short)


@pytest.mark.parametrize("n, max_degree", [(n, 8) for n in range(2, 7)] + [(7, 6), (8, 6)])
def test_compute_P_matches_the_oracle_on_the_unrotated_index(n, max_degree):
    assert compute_P(n, max_degree) == oracle_P(n, max_degree)[0]


def test_compute_P_frees_its_unit_seed_by_reference_counting(monkeypatch):
    # the memo dies with the seed as soon as P is read; a reduction that
    # held the seed in a reference cycle would keep it until the cyclic
    # collector ran
    refs = []
    make_unit = DiagonalSeed.unit

    def recording_unit(length):
        seed = make_unit(length)
        refs.append(weakref.ref(seed))
        return seed

    monkeypatch.setattr(DiagonalSeed, "unit", staticmethod(recording_unit))
    enabled = gc.isenabled()
    gc.disable()
    try:
        compute_P(6, 4)
        (ref,) = refs
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


HEADROOM_CHILD = """
import sys
from mdslab.reducer import compute_P
sys.setrecursionlimit(200)
print(repr(compute_P(10, 6)))
"""


def test_reduction_recursion_fits_a_small_stack():
    # every dependency has a smaller index sum; compute_P(10, 6) nests 72
    # reductions deep below the first, well inside a recursion limit of 200
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", HEADROOM_CHILD],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(compute_P(10, 6)) + "\n"


small_laurent = st.dictionaries(
    st.integers(-8, 8), st.integers(-3, 3), max_size=3
).map(QLaurent)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_random_seed_matches_max_violation_oracle(data):
    n1 = data.draw(st.integers(3, 6), label="n + 1")
    seed = DiagonalSeed(data.draw(st.lists(small_laurent, min_size=8, max_size=8)))
    oracle = {}
    for t in tuples_with_sum_at_most(n1, 7):
        assert reduce_coeff(t, seed) == max_violation_reduce(t, seed, oracle), t


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_random_seed_gives_one_value_on_rotations_and_reversal(data):
    # the symmetries of the cyclic diagram, which the rotated read of P
    # relies on, under seeds that may or may not have an odd diagonal
    n1 = data.draw(st.integers(3, 6), label="n + 1")
    seed = DiagonalSeed(data.draw(st.lists(small_laurent, min_size=8, max_size=8)))
    for t in tuples_with_sum_at_most(n1, 7):
        c = reduce_coeff(t, seed)
        for k in range(n1):
            rotated = t[k:] + t[:k]
            assert reduce_coeff(rotated, seed) == c, (t, k)
            assert reduce_coeff(rotated[::-1], seed) == c, (t, k)
