import random

import numpy as np
import pytest
from test_fqpoly import poly

from mdslab import accel, fqpoly
from mdslab.fqpoly import Fq, _digits, _index, degree, field


def test_backend_name():
    assert accel.backend_name() == "numpy"


def squarefree_primes(fq, g):
    # the primes of a squarefree g, as the sweep takes them
    factors = fq.factor(g)[0]
    assert all(e == 1 for _, e in factors), g
    return [p for p, _ in factors]


def general_row(fq, factors, dmax):
    """(f/g) for every monic f of degree <= dmax, in row layout, for any
    monic g given by its factorisation ((p, e), ...): the product of the
    prime rows, an even power contributing only the mask row != 0. The
    sweep of a modulus that is not squarefree, as an oracle."""
    prime_rows = accel._prime_rows(fq, [p for p, _ in factors], dmax)
    row = np.ones(2 * fq.q**dmax, dtype=np.int8)
    for p, e in factors:
        prow = prime_rows[p][: len(row)]
        row *= prow if e % 2 else prow != 0
    return row


def general_sums(fq, factors, dmax):
    # sums[d] = sum over monic f of degree d of (f/g), g as in general_row
    row = general_row(fq, factors, dmax)
    return [int(row[fq.q**d : 2 * fq.q**d].sum()) for d in range(dmax + 1)]


def test_sums_match_scalar_route():
    # the sweep takes g's primes; the oracle is the Euclid-reciprocity symbol
    cases = [(5, [0, 1]), (5, [1, 0, 1]), (5, [2, 1, 0, 1])]
    cases += [(13, [0, 1]), (13, [5, 1, 1]), (13, [1, 2, 0, 1])]
    for q, coeffs in cases:
        fq = field(q)
        g = poly(fq, coeffs)
        sums = accel.symbol_sums_by_degree(fq, squarefree_primes(fq, g), 3)
        for d in range(4):
            want = sum(fq.residue_symbol(f, g) for f in fq.monic_enum(d))
            assert int(sums[d]) == want, (g, d)


def monic_by_index(fq, d, idx):
    # the batch order encodes the d low coefficients base q, constant fastest
    coeffs = [(idx // fq.q**k) % fq.q for k in range(d)] + [1]
    return poly(fq, coeffs)


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


def cached_rows(fq):
    # {p: row} of the prime rows in fq's accel cache, oldest first
    return {p: a for (kind, p), a in accel._cache(fq).entries.items() if kind == "row"}


def assert_rows_match_oracle(fq, g, dmax):
    # g's row on the one path that both sweeps read, from g's factorisation
    row = accel._modulus_rows(fq, [fq.factor(g)[0]], dmax)[0]
    assert_row_matches_oracle(fq, g, row, dmax)


def table_rows(q, primes, dmax):
    """Rows to degree dmax of primes of one degree dp by the table route:
    T reduces every f mod p, and chi_p marks the squares of all q^dp
    residues, found digit by digit: r = c + t*h has r^2 = c^2 + 2c*(t*h) +
    t*(t*h^2). The oracle of the reciprocity rows."""
    dp, count = degree(primes[0]), len(primes)
    size = q**dp
    flat = accel._shifts(q, primes).astype(np.int64).ravel()
    offset = np.arange(count)[:, None] * size  # prime k's residue r at k*size + r
    cs = np.arange(q)
    unit = np.zeros((dp, 1, 1, 1), dtype=np.int64)
    unit[0] = 1
    sq = np.zeros((count, 1), dtype=np.int64)  # h^2 mod p over the h with j coefficients
    for j in range(dp):
        t_h = _digits(q, dp, np.arange(q**j) * q)[:, None, :, None]
        tt = flat[offset + flat[offset + sq]]
        r_sq = _index(q, _digits(q, dp, tt)[..., None] + 2 * cs * t_h + cs * cs * unit)
        sq = r_sq.reshape(count, -1)  # r = c + t*h has index q*h + c
    chi = np.full(count * size, -1, dtype=np.int8)
    chi[(offset + sq).ravel()] = 1
    chi[offset.ravel()] = 0
    rows = np.zeros((count, 2 * q**dmax), dtype=np.int8)
    rows[:, 1] = 1
    ridx = offset + 1  # f = 1 is the residue 1
    for d in range(1, dmax + 1):
        # f = c + t*h is T[h mod p] with c added to its constant digit
        u = flat[ridx]
        low = u % q
        ridx = ((low[:, :, None] + cs) % q + (u - low + offset)[:, :, None]).reshape(count, -1)
        rows[:, q**d : 2 * q**d] = chi[ridx]
    return rows


def assert_rows_equal_table_route(q, primes, dmaxes):
    # each dmax in a fresh context, so every row is built to exactly dmax
    want = {}
    for e in sorted({degree(p) for p in primes}):
        group = [p for p in primes if degree(p) == e]
        for start in range(0, len(group), 64):
            chunk = group[start : start + 64]
            want.update(zip(chunk, table_rows(q, chunk, max(dmaxes))))
    for dmax in dmaxes:
        rows = accel._prime_rows(Fq(q), primes, dmax)
        for p in primes:
            assert np.array_equal(rows[p], want[p][: 2 * q**dmax]), (p, dmax)


@pytest.mark.parametrize("q, top", [(5, 5), (13, 3)])
def test_rows_equal_the_table_route_on_every_small_prime(q, top):
    fq = Fq(q)
    primes = [p for e in range(1, top + 1) for p in fq._primes_of_degree(e)]
    assert_rows_equal_table_route(q, primes, range(top + 1))


def test_rows_equal_the_table_route_on_sampled_primes_at_q29():
    fq = field(29)
    rng = random.Random(29)
    primes = rng.sample(fq._primes_of_degree(3), 4) + rng.sample(fq._primes_of_degree(4), 2)
    assert_rows_equal_table_route(29, primes, range(4))


def test_rows_below_the_prime_degree_need_no_table(monkeypatch):
    # a cubic prime at q=29 read to degree 2: every (p/r) comes by
    # reciprocity and the sieve, and T is never built
    def no_table(*args):
        raise RuntimeError("table built")

    monkeypatch.setattr(accel, "_shifts", no_table)
    fq = Fq(29)
    p = fq._primes_of_degree(3)[17]
    assert_row_matches_oracle(fq, p, accel._prime_rows(fq, [p], 2)[p], 2)
    sums = accel.symbol_sums_by_degree(Fq(29), (p,), 2).tolist()
    assert sums == [sum(fq.residue_symbol(f, p) for f in fq.monic_enum(d)) for d in range(3)]
    with pytest.raises(RuntimeError, match="table built"):
        accel._prime_rows(fq, [p], 4)


def test_large_prime_read_below_its_degree_is_admitted():
    # an irreducible octic at q=13 read to degree 2 costs its 2 * 13^2 row
    # bytes, not tables over 13^8 residues
    fq = Fq(13)
    g = (2, 10, 11, 4, 1, 11, 5, 11, 1)
    assert fq.factor(g)[0] == ((g, 1),)
    sums = accel.symbol_sums_by_degree(fq, (g,), 2).tolist()
    assert sums == [sum(fq.residue_symbol(f, g) for f in fq.monic_enum(d)) for d in range(3)]
    assert sums == [1, -3, 27]


def test_rows_past_the_sieve_bound_use_a_sieve_of_their_own(monkeypatch):
    # when fqpoly may not grow its sieve to the degrees below the prime,
    # the sweep sieves for itself, and prices it
    p = Fq(5)._primes_of_degree(4)[7]
    fq = Fq(5)
    fq._grow_sieve(1)
    monkeypatch.setattr(fqpoly, "MAX_SIEVE_BYTES", fqpoly._sieve_bytes(5, 1))
    assert_row_matches_oracle(fq, p, accel._prime_rows(fq, [p], 4)[p], 4)
    assert fq._sieve_degree == 1
    # the row and its temporaries, 10 * 5^4 bytes, fit this bound; the
    # sweep's own sieve to degree 3 does not
    monkeypatch.setattr(accel, "MAX_SWEEP_BYTES", 20 * 5**4)
    with pytest.raises(ValueError, match="bytes"):
        accel.symbol_sums_by_degree(fq, (p,), 4)


def test_symbol_rows_match_scalar_route():
    fq = field(5)
    rows = accel.symbol_rows(fq, list(fq.monic_enum(2)), 2)
    assert rows.shape == (25, 2 * 25) and rows.dtype == np.int8
    for row, g in zip(rows, fq.monic_enum(2)):
        assert_row_matches_oracle(fq, g, row, 2)


def test_symbol_row_chunks_are_slices_of_all_rows():
    fq = field(5)
    gs = list(fq.monic_enum(3))
    rows = accel.symbol_rows(fq, gs, 2)
    chunks = [accel.symbol_rows(fq, gs[start : start + 40], 2) for start in range(0, 125, 40)]
    assert [len(c) for c in chunks] == [40, 40, 40, 5]
    assert np.array_equal(np.concatenate(chunks), rows)


def test_every_modulus_up_to_degree_3_matches_scalar_route():
    # every monic g of degree <= 3 at q=5: square factors, and primes of
    # degree above the sweep degree, included
    fq = field(5)
    for dg in range(4):
        rows = accel.symbol_rows(fq, list(fq.monic_enum(dg)), 3)
        for row, g in zip(rows, fq.monic_enum(dg)):
            assert_row_matches_oracle(fq, g, row, 3)


@pytest.mark.parametrize("q", [17, 29])
def test_sampled_moduli_match_scalar_route(q):
    fq = field(q)
    rng = random.Random(q)
    moduli = [poly(fq, [rng.randrange(q) for _ in range(dg)] + [1]) for dg in (1, 2, 3, 4)]
    moduli += [fq.mul(g, g) for g in moduli[:2]]  # even exponents
    moduli += [fq.mul(moduli[0], moduli[3])]
    for g in moduli:
        assert_rows_match_oracle(fq, g, 2)


def test_public_routes_agree():
    # the sweep and the Euclid-reciprocity symbol are two routes to the same
    # values; the per-degree sums must also equal the sums of the batch rows
    fq = field(13)
    for g in [poly(fq, [0, 1]), poly(fq, [5, 1, 1]), poly(fq, [1, 2, 0, 1])]:
        sums = accel.symbol_sums_by_degree(fq, squarefree_primes(fq, g), 2)
        row = accel.symbol_rows(fq, list(fq.monic_enum(len(g) - 1)), 2)[index_of(fq, g)]
        for d in range(3):
            vals = row[13**d : 2 * 13**d]
            assert int(sums[d]) == int(vals.sum()), (g, d)
            for idx, v in enumerate(vals):
                f = monic_by_index(fq, d, idx)
                assert int(v) == fq.residue_symbol(f, g), (f, d)


def test_prime_degree_above_sweep_degree():
    # the prime's residues have more coefficients than the swept f
    fq = field(5)
    g = poly(fq, [2, 0, 0, 1])  # irreducible cubic times nothing else
    vals = accel.symbol_rows(fq, list(fq.monic_enum(3)), 1)[index_of(fq, g)][5:10]
    for idx, v in enumerate(vals):
        assert int(v) == fq.residue_symbol(monic_by_index(fq, 1, idx), g)


def test_trivial_modulus(monkeypatch):
    # the sums of the principal character are q^d, however far asked for:
    # no row is built (at q=29 to degree 6 it would hold 2 * 29^6 entries),
    # nor anything cached
    def no_sweep(*args):
        raise RuntimeError("swept")

    monkeypatch.setattr(accel, "_modulus_rows", no_sweep)
    fq = field(5)
    sums = accel.symbol_sums_by_degree(fq, fq.factor((1,))[0], 3)
    assert list(sums) == [1, 5, 25, 125]
    fq = Fq(29)
    assert accel.symbol_sums_by_degree(fq, (), 6).tolist() == [29**d for d in range(7)]
    assert not accel._cache(fq).entries


def test_square_factor_kills_common_divisors():
    fq = field(5)
    t = poly(fq, [0, 1])
    g = fq.mul(fq.mul(t, t), poly(fq, [1, 1]))
    vals = accel.symbol_rows(fq, list(fq.monic_enum(3)), 1)[index_of(fq, g)][5:10]
    for idx, v in enumerate(vals):
        assert int(v) == fq.residue_symbol(monic_by_index(fq, 1, idx), g)


def test_row_grows_to_a_larger_degree():
    # one cache entry per prime; asking for a larger degree rebuilds its row
    fq = Fq(13)  # a fresh context: no other test has grown this row
    g = poly(fq, [2, 0, 1])  # irreducible: -2 is not a square mod 13
    assert list(accel.symbol_sums_by_degree(fq, (g,), 1)) == [1, -1]
    assert len(cached_rows(fq)[g]) == 2 * 13
    row = accel.symbol_rows(fq, list(fq.monic_enum(2)), 3)[index_of(fq, g)]
    assert_row_matches_oracle(fq, g, row, 3)
    assert len(cached_rows(fq)[g]) == 2 * 13**3


def test_oversized_sweep_is_refused_before_allocating():
    # 29^7 f's would need about 2e11 bytes; the estimate refuses it at once
    fq = field(29)
    with pytest.raises(ValueError, match="bytes"):
        accel.symbol_sums_by_degree(fq, (poly(fq, [0, 1]),), 7)


def test_cache_drops_oldest_entries_past_its_bound(monkeypatch):
    monkeypatch.setattr(accel, "MAX_CACHE_BYTES", 250)  # five degree-2 rows
    fq = Fq(5)
    cache = accel._cache(fq)
    primes = fq._primes_of_degree(2)
    for p in primes:
        assert_rows_match_oracle(fq, p, 2)
        held = sum(a.nbytes for a in cache.entries.values())
        assert cache.nbytes == held <= 250
    assert list(cached_rows(fq)) == list(primes[-5:])
    assert_rows_match_oracle(fq, primes[0], 2)  # rebuilt after eviction


def test_sums_memo_is_charged_and_drops_oldest_entries_first(monkeypatch):
    # the swept sums share the prime rows' byte bound: each entry of either
    # kind is charged to the cache's nbytes, and past MAX_CACHE_BYTES the
    # entries stored longest ago go first, whichever kind they are
    monkeypatch.setattr(accel, "MAX_CACHE_BYTES", 500)  # ten rows or twenty sums
    stored = []
    put = accel._Cache.put

    def recording(cache, key, array):
        stored.append(key)
        put(cache, key, array)

    monkeypatch.setattr(accel._Cache, "put", recording)
    fq = Fq(5)
    cache = accel._cache(fq)
    moduli = [g for d in (1, 2) for g in fq.monic_enum(d) if fq.is_squarefree(g)]
    for g in moduli:
        want = [sum(fq.residue_symbol(f, g) for f in fq.monic_enum(d)) for d in range(3)]
        assert accel.symbol_sums_by_degree(fq, squarefree_primes(fq, g), 2).tolist() == want, g
        held = sum(a.nbytes for a in cache.entries.values())
        assert cache.nbytes == held <= 500
    last = {key: k for k, key in enumerate(stored)}
    by_age = sorted(last, key=last.get)
    kept = list(cache.entries)
    assert 0 < len(kept) < len(by_age)
    assert kept == by_age[len(by_age) - len(kept) :]
    assert {kind for kind, _ in kept} == {"row", "sums"}
    assert ("sums", tuple(squarefree_primes(fq, moduli[0]))) not in kept
    assert ("sums", tuple(squarefree_primes(fq, moduli[-1]))) in kept


def test_sums_memo_answers_only_the_degrees_it_swept(monkeypatch):
    fq = Fq(13)
    g = poly(fq, [1, 2, 0, 1])
    primes = squarefree_primes(fq, g)
    sums = accel.symbol_sums_by_degree(fq, primes, 3).tolist()
    rows = accel._modulus_rows

    def no_sweep(*args):
        raise RuntimeError("swept again")

    monkeypatch.setattr(accel, "_modulus_rows", no_sweep)
    assert accel.symbol_sums_by_degree(fq, primes, 2).tolist() == sums[:3]
    # a returned array is a copy: changing it leaves the memo alone
    accel.symbol_sums_by_degree(fq, primes, 3)[0] += 5
    assert accel.symbol_sums_by_degree(fq, primes, 3).tolist() == sums
    with pytest.raises(RuntimeError, match="swept again"):
        accel.symbol_sums_by_degree(fq, primes, 4)
    monkeypatch.setattr(accel, "_modulus_rows", rows)
    longer = accel.symbol_sums_by_degree(fq, primes, 4).tolist()
    assert longer[:4] == sums and len(accel._cache(fq).entries["sums", tuple(primes)]) == 5


def test_sums_memo_keys_entries_by_sorted_primes(monkeypatch):
    # (f / t u) is one entry, keyed by (t, u), swept once and equal to the
    # oracle, in whatever order the primes come
    fq = Fq(5)
    t, u = poly(fq, [0, 1]), poly(fq, [1, 1])
    g = fq.mul(t, u)
    want = [sum(fq.residue_symbol(f, g) for f in fq.monic_enum(d)) for d in range(4)]
    assert accel.symbol_sums_by_degree(fq, [u, t], 3).tolist() == want

    def no_sweep(*args):
        raise RuntimeError("swept again")

    monkeypatch.setattr(accel, "_modulus_rows", no_sweep)
    assert accel.symbol_sums_by_degree(fq, (t, u), 3).tolist() == want
    assert [key for key in accel._cache(fq).entries if key[0] == "sums"] == [("sums", (t, u))]


def counting_batches(monkeypatch):
    # the number of primes of each _batch_rows call, in order
    batches = []
    build = accel._batch_rows

    def counting(fq, primes, dmax):
        batches.append(len(primes))
        return build(fq, primes, dmax)

    monkeypatch.setattr(accel, "_batch_rows", counting)
    return batches


@pytest.mark.parametrize("q, top", [(5, 3), (13, 2)])
def test_batched_prime_rows_match_scalar_route(q, top, monkeypatch):
    # several primes of each degree built in one batch, in a fresh context
    batches = counting_batches(monkeypatch)
    fq = Fq(q)
    for e in range(1, top + 1):
        primes = fq._primes_of_degree(e)[:12]
        T = accel._shifts(q, primes)
        assert T.dtype == np.min_scalar_type(q**e + q) and T.shape == (len(primes), q**e)
        rows = accel._prime_rows(fq, primes, 2)
        # the 12 asked for, topped up with the rest of their degree
        assert batches[e - 1 :] == [len(fq._primes_of_degree(e))]
        for p in primes:
            row = cached_rows(fq)[p]
            assert row is rows[p] and len(row) == 2 * q**2
            assert_row_matches_oracle(fq, p, row, 2)


def test_one_prime_brings_the_other_primes_of_a_small_degree(monkeypatch):
    # the 10 quadratic primes at q=5 fit one pass and one batch of rows, so
    # a sweep asking for one builds them all in one batch; so do the 406 at
    # q=29 read to degree 1 (their pairs with the 29 linear primes), but not
    # the 8,120 cubic primes at q=29 read to degree 2, nor the others under
    # a cache bound without room for their rows
    batches = counting_batches(monkeypatch)
    fq = Fq(5)
    primes = fq._primes_of_degree(2)
    assert_rows_match_oracle(fq, primes[3], 2)
    assert batches == [10] and set(cached_rows(fq)) == set(primes)
    for p in primes:
        assert_row_matches_oracle(fq, p, cached_rows(fq)[p], 2)
    assert_rows_match_oracle(fq, fq.mul(primes[0], primes[9]), 2)
    assert batches == [10]  # nothing left to build
    fq = Fq(29)
    p = fq._primes_of_degree(2)[0]
    assert_rows_match_oracle(fq, p, 1)
    assert batches[1:] == [406] and set(cached_rows(fq)) == set(fq._primes_of_degree(2))
    p = fq._primes_of_degree(3)[0]
    assert_rows_match_oracle(fq, p, 2)
    assert batches[2:] == [1] and list(cached_rows(fq))[-1] == p
    assert len(cached_rows(fq)) == 406 + 1
    monkeypatch.setattr(accel, "MAX_CACHE_BYTES", 250)  # room for 5 rows
    fq = Fq(5)
    assert_rows_match_oracle(fq, primes[3], 2)
    assert batches[3:] == [1] and list(cached_rows(fq)) == [primes[3]]


def test_short_rows_of_a_small_degree_are_rebuilt_in_one_batch(monkeypatch):
    # one linear prime asked to a larger degree brings every other linear
    # prime whose row is shorter: one batch rebuilds all five
    batches = counting_batches(monkeypatch)
    fq = Fq(5)
    t = poly(fq, [0, 1])
    assert list(accel.symbol_sums_by_degree(fq, (t,), 1)) == [1, 0]
    assert batches == [5] and all(len(r) == 2 * 5 for r in cached_rows(fq).values())
    assert_rows_match_oracle(fq, t, 3)
    assert batches == [5, 5]
    rows = cached_rows(fq)
    assert set(rows) == set(fq._primes_of_degree(1))
    for p, row in rows.items():
        assert len(row) == 2 * 5**3
        assert_row_matches_oracle(fq, p, row, 3)


def test_cache_holds_only_the_rows_of_a_large_prime():
    # a cubic prime at q=29 asked to degree 2 keeps its 2 * 29^2 row bytes,
    # not its 29^3-entry T and chi
    fq = Fq(29)
    p = fq._primes_of_degree(3)[0]
    accel._prime_rows(fq, [p], 2)
    cache = accel._cache(fq)
    assert list(cache.entries) == [("row", p)]
    assert cache.nbytes == 2 * 29**2


def test_grown_rows_equal_a_fresh_build():
    fq = Fq(5)
    primes = fq._primes_of_degree(1) + fq._primes_of_degree(2)
    accel._prime_rows(fq, primes, 2)
    grown = accel._prime_rows(fq, primes, 4)
    fresh = accel._prime_rows(Fq(5), primes, 4)
    for p in primes:
        assert np.array_equal(grown[p], fresh[p])
        assert np.array_equal(grown[p][: 2 * 25], accel._prime_rows(Fq(5), [p], 2)[p])


def test_char_bytes_match_entries_after_a_batch():
    fq = Fq(13)
    accel.symbol_rows(fq, list(fq.monic_enum(2)), 2)
    rows = list(cached_rows(fq).values())
    assert len(rows) == 13 + 78  # every prime of degree <= 2
    assert accel._cache(fq).nbytes == sum(a.nbytes for a in rows)
    # each entry owns its array, so dropping one frees its bytes
    assert all(a.base is None for a in rows)


def test_oversized_symbol_rows_are_refused_before_allocating():
    # every monic quartic at q=29, to degree 4: about 2e12 bytes of rows and
    # tables; the estimate refuses it before any prime is sieved or built
    fq = Fq(29)
    with pytest.raises(ValueError, match="bytes"):
        accel.symbol_rows(fq, list(fq.monic_enum(4)), 4)
    assert fq._sieve_degree == 0 and not accel._cache(fq).entries
