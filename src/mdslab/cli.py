"""Command-line driver: coefficient tables and verification suites.

Subcommands: ``coeffs`` exports the exact coefficients as CSV, ``verify``
runs a named check suite and writes a JSON report, ``moments`` runs the
cubic-moment cross-check. Exit code 0 means every check passed, 1 means
at least one check failed, 2 means the invocation was invalid.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .fqpoly import SUPPORTED_Q, field
from .reducer import (
    check_diagonal_determination,
    check_dominance,
    check_lambda_fe,
    reduce_coeff,
    tuples_with_sum_at_most,
)

SUITES = ("axioms", "fe", "residue", "partitions", "all")


def _pipeline_seed(n: int, bound: int):
    from .residue import run_pipeline

    return run_pipeline(n, max(bound, 4) + 2).seed


def _write(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_coeffs(args) -> int:
    seed = _pipeline_seed(args.n, args.bound)
    rows = []
    for t in tuples_with_sum_at_most(args.n + 1, args.bound):
        rows.append(list(t) + [reduce_coeff(t, seed).serialize()])
    header = [f"a_{i}" for i in range(args.n + 1)] + ["coeff"]
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write(args.out, buf.getvalue())
    return 0


# -- verification suites ---------------------------------------------------


def _suite_axioms(args, seed):
    from .globalweights import global_coeff_sum

    fq = field(args.q)
    checks = []
    for t in tuples_with_sum_at_most(args.n + 1, args.bound):
        checks.append(("dominance", {"t": list(t)}, lambda t=t: check_dominance(t, seed)))

    def unit_tuples():
        for i in range(args.n + 1):
            for a in range(1, args.bound + 1):
                t = tuple(a if j == i else 0 for j in range(args.n + 1))
                c = reduce_coeff(t, seed)
                if c.serialize() != f"{4 * a}:1":
                    return {"status": "fail", "witness": f"c at {t} = {c!r}"}
        return {"status": "pass"}

    checks.append(("unit_tuples", {"bound": args.bound}, unit_tuples))

    def local_to_global():
        for t in tuples_with_sum_at_most(args.n + 1, min(args.bound, args.trunc)):
            got = global_coeff_sum(fq, t, seed)
            want = reduce_coeff(t, seed).eval_int(fq.q)
            if got != want:
                return {"status": "fail", "witness": f"t={t}: {got} != {want}"}
        return {"status": "pass"}

    checks.append(("local_to_global", {"q": args.q, "bound": min(args.bound, args.trunc)}, local_to_global))
    return checks


def _suite_fe(args, seed):
    from .globalweights import l_series_H
    from .reducer import DiagonalSeed
    from .qlaurent import QLaurent, QL_ONE

    fq = field(args.q)
    checks = []
    for fixed in tuples_with_sum_at_most(args.n + 1, args.bound):
        for i in range(args.n + 1):
            checks.append(
                (
                    "lambda_fe",
                    {"fixed": list(fixed), "i": i},
                    lambda fixed=fixed, i=i: check_lambda_fe(fixed, i, seed),
                )
            )

    def determination():
        other = DiagonalSeed(
            [QL_ONE] + [QLaurent.const(k + 2) for k in range(args.bound + 1)],
            name="probe",
        )
        return check_diagonal_determination(args.n, seed, other, min(args.bound, 6))

    checks.append(("diagonal_determination", {"D": min(args.bound, 6)}, determination))

    fixed_deg = min(args.trunc, 3)
    pairs = []
    for s in range(fixed_deg + 1):
        for d0 in range(s + 1):
            for f0 in fq.monic_enum(d0):
                for f2 in fq.monic_enum(s - d0):
                    pairs.append((f0, f2))

    def l_series_suite():
        one = (1,)
        for f0, f2 in pairs:
            fixed = (f0, one, f2) + (one,) * (args.n - 2)
            r = l_series_H(fq, fixed, 1, (len(f0) - 1) + (len(f2) - 1) + 1, seed)
            if r["status"] != "pass":
                r.pop("coeffs", None)
                return r
        return {"status": "pass"}

    checks.append(("l_series_fe", {"q": args.q, "deg": fixed_deg, "count": len(pairs)}, l_series_suite))
    return checks


def _suite_residue(args, seed):
    from . import residue as res
    from .fqpoly import field as _field

    fq = _field(args.q)
    n = args.n
    checks = [
        (
            "pipeline_consistency",
            {"D": args.bound},
            lambda: res.check_pipeline_consistency(n, args.bound),
        ),
        ("factor_pairing", {"D": 2 * args.bound}, lambda: res.check_factor_pairing(n, 2 * args.bound)),
    ]
    for pdeg in (1, 2):
        checks.append(
            (
                "euler_substitution",
                {"p_deg": pdeg, "D": min(args.bound, 4)},
                lambda pdeg=pdeg: res.check_euler_substitution(n, pdeg, min(args.bound, 4), seed),
            )
        )
    admissible = range(0, n + 1, 2) if n % 2 else range(2, n, 2)
    for i in admissible:
        checks.append(
            ("residue_fe", {"i": i, "D": args.trunc}, lambda i=i: res.check_resfe(n, i, args.trunc))
        )
    if n % 2 == 0:
        for which in ("cycle-squared", "edge"):
            checks.append(
                (
                    f"neven_fe_{which}",
                    {"D": args.trunc},
                    lambda which=which: res.check_neven_fe(n, which, args.trunc),
                )
            )
    checks.append(
        ("reconstruct_R1", {"D": args.bound}, lambda: res.reconstruct_R1(n, args.bound))
    )

    def h_route():
        from .reducer import tuples_with_sum_at_most as tsa

        k = res.n_even_vars(n)
        for avec in tsa(k, min(args.bound, 3)):
            a = res.residue_coeff_H_route(fq, n, avec, seed)
            b = res.residue_coeff_engine_scaled(fq, n, avec, seed)
            if a != b:
                return {"status": "fail", "witness": f"avec={avec}: {a} != {b}"}
        return {"status": "pass"}

    checks.append(("residue_h_route", {"q": args.q, "bound": min(args.bound, 3)}, h_route))
    return checks


def _suite_partitions(args, seed):
    import itertools

    from . import partitions as pa
    from .reducer import compute_P

    n = args.n
    checks = []

    def lemma_routes():
        gf = pa.partition_product_gf(n, args.bound)
        for sums in itertools.product(range(args.trunc + 1), repeat=n):
            if sum(sums) > args.bound:
                continue
            if pa.count_partition_tuples(n, sums) != pa.series_int_coeff(gf, sums):
                return {"status": "fail", "witness": f"sums={sums}"}
        return {"status": "pass"}

    checks.append(("partition_gf", {"bound": args.bound}, lemma_routes))

    def tuple_routes():
        b = min(args.bound, 3)
        gf = pa.partition_tuple_product_gf(n, b)
        for sums in itertools.product(range(b + 1), repeat=n):
            if sum(sums) > b:
                continue
            if pa.count_partition_ntuples(n, sums) != pa.series_int_coeff(gf, sums):
                return {"status": "fail", "witness": f"sums={sums}"}
        return {"status": "pass"}

    checks.append(("partition_tuple_gf", {"bound": min(args.bound, 3)}, tuple_routes))

    amax = min(args.trunc, 5)
    if n % 2:

        def chains():
            P = compute_P(n, min(amax, 3))
            prod = pa.p_lowest_term_product_route(n, min(amax, 3))
            for a in range(min(amax, 3) + 1):
                counts = {
                    pa.count_reduction_chains(n, a),
                    pa.count_reduction_chains(n, a, simplified=False),
                    P[a].constant_coeff(),
                    prod[a],
                }
                if len(counts) > 1:
                    return {"status": "fail", "witness": f"a={a}: {sorted(counts)}"}
            return {"status": "pass"}

        checks.append(("reduction_chains", {"amax": min(amax, 3)}, chains))
    else:

        def evenness():
            P = compute_P(n, amax)
            prod = pa.p_lowest_term_product_route(n, amax)
            for a in range(amax + 1):
                if a % 2 and P[a]:
                    return {"status": "fail", "witness": f"odd-degree term at a={a}"}
                low = P[a].constant_coeff() if P[a] else 0
                if low != prod[a]:
                    return {"status": "fail", "witness": f"a={a}: {low} != {prod[a]}"}
            return {"status": "pass"}

        checks.append(("even_series_lowest_terms", {"amax": amax}, evenness))
    return checks


def cmd_verify(args) -> int:
    seed = _pipeline_seed(args.n, max(args.bound, args.trunc))
    builders = {
        "axioms": _suite_axioms,
        "fe": _suite_fe,
        "residue": _suite_residue,
        "partitions": _suite_partitions,
    }
    names = list(builders) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(builders[name](args, seed))

    def run(entry):
        name, params, fn = entry
        try:
            result = fn()
        except Exception as exc:  # a crashed check is a failed check
            result = {"status": "fail", "witness": f"{type(exc).__name__}: {exc}"}
        out = {"name": name, "params": params, "status": result.get("status", "fail")}
        if "witness" in result:
            out["witness"] = result["witness"]
        return out

    results = [run(entry) for entry in checks]

    report = {
        "meta": {"n": args.n, "q0": args.q, "D": args.trunc, "version": __version__},
        "checks": results,
    }
    _write(args.out, json.dumps(report, indent=2) + "\n")
    if args.strict:
        failed = any(c["status"] != "pass" for c in results)
    else:
        failed = any(c["status"] == "fail" for c in results)
    return 1 if failed else 0


def cmd_moments(args) -> int:
    from .lfunctions import moment_identity_check

    if args.n != 3:
        print("moments: the identity is specific to n=3", file=sys.stderr)
        return 2
    fq = field(args.q)
    r = moment_identity_check(fq, args.trunc)
    report = {
        "meta": {"n": args.n, "q0": args.q, "D": args.trunc, "version": __version__},
        "checks": [
            {
                "name": "moment_identity",
                "params": {"dmax": args.trunc},
                "status": r["status"],
                **({"witness": r["witness"]} if "witness" in r else {}),
            }
        ],
    }
    _write(args.out, json.dumps(report, indent=2) + "\n")
    return 0 if r["status"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mdslab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("coeffs", cmd_coeffs), ("verify", cmd_verify), ("moments", cmd_moments)):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--q", type=int, default=5)
        p.add_argument("--bound", type=int, default=4, help="degree bound for tables")
        p.add_argument("--trunc", type=int, default=6, help="truncation D for series checks")
        p.add_argument("--suite", choices=SUITES, default="all")
        p.add_argument("--out", default=None)
        p.add_argument("--strict", action="store_true")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.n < 2:
        print("n must be at least 2", file=sys.stderr)
        return 2
    if args.q not in SUPPORTED_Q:
        print(f"unsupported q={args.q}; choose from {sorted(SUPPORTED_Q)}", file=sys.stderr)
        return 2
    if args.trunc < args.bound and args.command == "verify":
        print("--trunc must be at least --bound", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
