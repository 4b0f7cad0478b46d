"""Acceptance gate: the eleven headline identities at their stated scales.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output) and asserts the corresponding exact statement.
"""

import itertools
import sys

import pytest

from mdslab.fqpoly import field
from mdslab.qlaurent import QL_ONE, QLaurent
from mdslab.reducer import (
    DiagonalSeed,
    check_dominance,
    check_lambda_fe,
    reduce_coeff,
    tuples_with_sum_at_most,
)
from mdslab.residue import (
    build_R,
    check_euler_substitution,
    check_factor_pairing,
    check_fe,
    check_pipeline_consistency,
    fe_generators,
    h_route_exponent,
    n_even_vars,
    reconstruct_R1,
    residue_coeff_H_route,
    residue_index,
    run_pipeline,
)
from mdslab.series import check_diagonal_determination


def report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    sys.stdout.flush()
    assert ok, line


def test_criterion_01_residue_formula_n3():
    r = check_pipeline_consistency(3, 8, run_pipeline(3, 8).seed)
    report(1, r["status"] == "pass",
           "n=3 residue product matches engine coefficients, sum avec <= 8")


def test_criterion_02_pipeline_other_ranks():
    bad = [n for n in (2, 4, 5)
           if check_pipeline_consistency(n, 6, run_pipeline(n, 6).seed)["status"] != "pass"]
    report(2, not bad,
           "pipeline consistency for n=2,4,5 with sum avec <= 6" +
           (f" (failed: {bad})" if bad else ""))


def test_criterion_03_local_to_global():
    from mdslab.globalweights import global_coeff_sum

    ok = True
    witness = ""
    cases = [(2, 6, 5), (3, 5, 5), (2, 3, 13), (3, 3, 13)]
    for n, total, q0 in cases:
        fq = field(q0)
        seed = run_pipeline(n, total + 2).seed
        for t in tuples_with_sum_at_most(n + 1, total):
            got = global_coeff_sum(fq, t, seed)
            want = reduce_coeff(t, seed).eval_int(q0)
            if got != want:
                ok, witness = False, f" (t={t}, q0={q0}: {got} != {want})"
                break
        if not ok:
            break
    report(3, ok, "global weight sums equal engine coefficients at q0=5,13" + witness)


def test_criterion_04_dominance_and_units():
    ok = True
    witness = ""
    for n in (2, 3):
        seed = run_pipeline(n, 10).seed
        for t in tuples_with_sum_at_most(n + 1, 8):
            r = check_dominance(t, seed)
            if r["status"] not in ("pass", "boundary"):
                ok, witness = False, f" ({r})"
                break
        for i in range(n + 1):
            for a in range(1, 9):
                t = tuple(a if j == i else 0 for j in range(n + 1))
                if reduce_coeff(t, seed) != QLaurent.q_power(4 * a):
                    ok, witness = False, f" (unit tuple {t})"
        if not ok:
            break
    report(4, ok, "dominance holds for sum <= 8 and unit tuples give q^a, n=2,3" + witness)


def test_criterion_05_one_variable_fes():
    from mdslab.globalweights import l_series_H

    ok = True
    witness = ""
    for n in (2, 3):
        seed = run_pipeline(n, 14).seed
        for fixed in tuples_with_sum_at_most(n + 1, 6):
            for i in range(n + 1):
                r = check_lambda_fe(fixed, i, seed)
                if r["status"] != "pass":
                    ok, witness = False, f" ({r})"
                    break
            if not ok:
                break
        if not ok:
            break
    if ok:
        fq = field(5)
        one = (1,)
        for n in (2, 3):
            seed = run_pipeline(n, 14).seed
            for s in range(4):
                for d0 in range(s + 1):
                    for f0 in fq.monic_enum(d0):
                        for f2 in fq.monic_enum(s - d0):
                            fixed = (f0, one, f2) + (one,) * (n - 2)
                            r = l_series_H(fq, fixed, 1, max(s + 1, 1), seed)
                            if r["status"] != "pass":
                                ok, witness = False, f" ({r})"
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
    report(5, ok,
           "lambda FEs (sum <= 6, n=2,3) and H-series FEs (deg <= 3, q0=5)" + witness)


def test_criterion_06_diagonal_determination():
    seed = run_pipeline(2, 8).seed
    other = DiagonalSeed([QL_ONE] + [QLaurent.const(k + 2) for k in range(8)],
                         name="probe")
    r = check_diagonal_determination(2, seed, other, 6)
    report(6, r["status"] == "pass",
           "series ratio of two seeds is diagonal, n=2, D=6")


def test_criterion_07_residue_structure():
    fq = field(5)
    ok = True
    witness = ""
    for n in (2, 3):
        seed = run_pipeline(n, 10).seed
        for avec in tuples_with_sum_at_most(n_even_vars(n), 4):
            a = residue_coeff_H_route(fq, n, avec, seed) * 5 ** h_route_exponent(n, avec)
            b = reduce_coeff(residue_index(n, avec), seed).eval_int(5)
            if a != b:
                ok, witness = False, f" (n={n}, avec={avec}: {a} != {b})"
                break
        for pdeg in (1, 2):
            r = check_euler_substitution(n, pdeg, 4, seed)
            if r["status"] != "pass":
                ok, witness = False, f" ({r})"
        if not ok:
            break
    if ok:
        for n in (2, 3, 4, 5):
            r = check_factor_pairing(n)
            if r["status"] != "pass":
                ok, witness = False, f" ({r})"
                break
    report(7, ok,
           "H-route residue coefficients, Euler substitution, factor pairing at every degree" + witness)


def test_criterion_08_scalar_cocycle_fes():
    ok = True
    witness = ""
    for n in (2, 3, 4, 5, 6):
        # the n = 2, 4 transforms (None) are the unverified special cases
        for key, pair in fe_generators(n).items():
            r = check_fe(n, key)
            if r["status"] != ("pass" if pair else "unverified special case"):
                ok, witness = False, f" ({r})"
    report(8, ok, "scalar-cocycle FEs: every generator for n=2..6 at every degree" + witness)


def test_criterion_09_r1_reconstruction():
    bad = [n for n in (2, 3, 4, 5) if reconstruct_R1(n, 6, run_pipeline(n, 6))["status"] != "pass"]
    report(9, not bad,
           "flat-part reconstruction of diagonal factors to degree 6, n=2..5" +
           (f" (failed: {bad})" if bad else ""))


def test_criterion_10_combinatorics():
    from partition_helpers import conjugate, gamma_decomposition

    from test_partitions import p_lowest_term_product_route

    from mdslab.partitions import (
        count_reduction_chains,
        partition_class_counts,
        partition_product_gf,
        series_int_coeff,
    )
    from mdslab.reducer import compute_P

    ok = True
    witness = ""
    for n in (2, 3):
        gf = partition_product_gf(n, 1, 6 * n)
        counts = partition_class_counts(n, 1, 6 * n)
        for sums in itertools.product(range(7), repeat=n):
            if counts.get(sums, 0) != series_int_coeff(gf, sums):
                ok, witness = False, f" (partition count at {sums})"
                break
        if not ok:
            break
    if ok:
        P = compute_P(3, 3)
        prod = p_lowest_term_product_route(3, 3)
        for a in range(4):
            vals = {count_reduction_chains(3, a),
                    count_reduction_chains(3, a, simplified=False),
                    P[a].constant_coeff(), prod[a]}
            if len(vals) > 1:
                ok, witness = False, f" (triple route at a={a}: {sorted(vals)})"
    if ok:
        for n in (2, 4):
            P = compute_P(n, 5)
            for a in (1, 3, 5):
                if P[a]:
                    ok, witness = False, f" (odd-degree p_{a} nonzero for n={n})"
    if ok:
        parts = [(), (1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2),
                 (4, 1), (3, 2, 1), (2, 2, 2)]
        for pt in itertools.product(parts, repeat=2):
            try:
                gamma, evens = gamma_decomposition(pt)
            except ValueError:
                continue
            gstar = conjugate(gamma)
            for orig, ev in zip(pt, evens):
                width = max(len(ev), len(gstar))
                rebuilt = [(ev[j] if j < len(ev) else 0) +
                           (gstar[j] if j < len(gstar) else 0) for j in range(width)]
                while rebuilt and rebuilt[-1] == 0:
                    rebuilt.pop()
                if tuple(rebuilt) != tuple(orig):
                    ok, witness = False, f" (gamma round-trip at {pt})"
    report(10, ok,
           "partition counts, chain triple route, evenness, gamma round-trip" + witness)


def test_criterion_11_l_function_suite():
    from mdslab.lfunctions import check_l_fe, check_rh, moment_identity_check

    fq = field(5)
    ok = True
    witness = ""
    for d in range(1, 6):
        for g in fq.monic_enum(d):
            if not fq.is_squarefree(g):
                continue
            r = check_l_fe(fq, g)
            if r["status"] != "pass":
                ok, witness = False, f" (FE at {g})"
                break
            r = check_rh(fq, g)
            if r["status"] != "pass":
                ok, witness = False, f" (RH at {g}: {r.get('witness')})"
                break
        if not ok:
            break
    if ok:
        r = moment_identity_check(fq, 4)
        if r["status"] != "pass":
            ok, witness = False, f" ({r})"
    report(11, ok,
           "L-function FE and RH to degree 5 over F_5, cubic moment to dmax=4" + witness)
