"""Command-line driver: coefficient tables and verification suites.

Subcommands: ``coeffs`` exports the exact coefficients as CSV, ``verify``
runs a named check suite and writes a JSON report, ``moments`` runs the
cubic-moment cross-check. Exit code 0 means every check passed, 1 means
at least one check failed. Exit code 2 means the invocation was refused
before any work, with one stderr line ``<command>: <reason>``: ``main``
runs the checks every command shares, then the command's admission
function, which holds its usage rules and the prices it can check up
front. argparse's own usage errors exit 2 as well.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from . import globalweights as gw, lfunctions as lf, partitions as pa, residue as res
from .fqpoly import SUPPORTED_Q, field
from .qlaurent import QL_ONE, QLaurent
from .reducer import (
    DiagonalSeed,
    check_dominance,
    check_lambda_fe,
    reduce_coeff,
    tuples_with_sum_at_most,
)
from .series import check_diagonal_determination, enforce_box_limit


def _write(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def admit_coeffs(args) -> None:
    # an index of sum <= bound reduces to diagonals c_{a,...,a} with a <= bound
    enforce_box_limit(res.n_even_vars(args.n), args.bound)


def cmd_coeffs(args) -> int:
    seed = res.run_pipeline(args.n, args.bound).seed
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"a_{i}" for i in range(args.n + 1)] + ["coeff"])
    for t in tuples_with_sum_at_most(args.n + 1, args.bound):
        writer.writerow(list(t) + [reduce_coeff(t, seed).serialize()])
    _write(args.out, buf.getvalue())
    return 0


# -- verification suites ---------------------------------------------------


def _suite_axioms(args, pipe):
    seed = pipe.seed
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
        ts = list(tuples_with_sum_at_most(args.n + 1, args.bound))
        for t, got in zip(ts, gw.global_coeff_sums(fq, ts, seed)):
            want = reduce_coeff(t, seed).eval_int(fq.q)
            if got != want:
                return {"status": "fail", "witness": f"t={t}: {got} != {want}"}
        return {"status": "pass"}

    checks.append(("local_to_global", {"q": args.q, "bound": args.bound}, local_to_global))
    return checks


def _suite_fe(args, pipe):
    seed = pipe.seed
    fq = field(args.q)
    checks = []
    # check_lambda_fe ignores fixed[i], so each slice is checked once and
    # its result read by every (fixed, i) that names it
    slices = {}

    def lambda_fe(fixed, i):
        key = (i, fixed[:i] + fixed[i + 1 :])
        if key not in slices:
            slices[key] = check_lambda_fe(fixed, i, seed)
        return slices[key]

    for fixed in tuples_with_sum_at_most(args.n + 1, args.bound):
        for i in range(args.n + 1):
            params = {"fixed": list(fixed), "i": i}
            checks.append(("lambda_fe", params, lambda fixed=fixed, i=i: lambda_fe(fixed, i)))

    def determination():
        other = DiagonalSeed(
            [QL_ONE] + [QLaurent.const(k + 2) for k in range(args.bound + 1)],
            name="probe",
        )
        return check_diagonal_determination(args.n, seed, other, min(args.bound, 6))

    checks.append(("diagonal_determination", {"D": min(args.bound, 6)}, determination))

    # one pair (f0, f2) per orbit of the group G of Fq.monic_orbits: moving
    # both by one element fixes the slice, whose f1 it only permutes;
    # "count" stays the number of pairs, the sum of the orbit sizes
    fixed_deg = min(args.trunc, 3)
    orbits = [
        orbit
        for s in range(fixed_deg + 1)
        for d0 in range(s + 1)
        for orbit in fq.monic_orbits((d0, s - d0))
    ]

    def l_series_suite():
        one = (1,)
        for (f0, f2), _ in orbits:
            fixed = (f0, one, f2) + (one,) * (args.n - 2)
            r = gw.l_series_H(fq, fixed, 1, (len(f0) - 1) + (len(f2) - 1) + 1, seed)
            if r["status"] != "pass":
                return r
        return {"status": "pass"}

    count = sum(size for _, size in orbits)
    checks.append(("l_series_fe", {"q": args.q, "deg": fixed_deg, "count": count}, l_series_suite))
    return checks


def _suite_residue(args, pipe):
    seed = pipe.seed
    fq = field(args.q)
    n = args.n
    checks = [
        (
            "pipeline_consistency",
            {"D": args.bound},
            lambda: res.check_pipeline_consistency(n, args.bound, seed),
        ),
        # these hold at every degree; "D" stays in the params so reports keep their bytes
        ("factor_pairing", {"D": 2 * args.bound}, lambda: res.check_factor_pairing(n)),
    ]
    for pdeg in (1, 2):
        checks.append(
            (
                "euler_substitution",
                {"p_deg": pdeg, "D": min(args.bound, 4)},
                lambda pdeg=pdeg: res.check_euler_substitution(n, pdeg, min(args.bound, 4), seed),
            )
        )
    for key in res.fe_generators(n):
        if isinstance(key, int):
            name, params = "residue_fe", {"i": key, "D": args.trunc}
        else:
            name, params = f"neven_fe_{key}", {"D": args.trunc}
        checks.append((name, params, lambda key=key: res.check_fe(n, key)))
    checks.append(
        ("reconstruct_R1", {"D": args.bound}, lambda: res.reconstruct_R1(n, args.bound, pipe))
    )

    def h_route():
        k = res.n_even_vars(n)
        for avec in tuples_with_sum_at_most(k, min(args.bound, 3)):
            total = res.residue_coeff_H_route(fq, n, avec, seed)
            a = total * fq.q ** res.h_route_exponent(n, avec)
            b = reduce_coeff(res.residue_index(n, avec), seed).eval_int(fq.q)
            if a != b:
                return {"status": "fail", "witness": f"avec={avec}: {a} != {b}"}
        return {"status": "pass"}

    checks.append(("residue_h_route", {"q": args.q, "bound": min(args.bound, 3)}, h_route))
    return checks


def _suite_partitions(args, pipe):
    n = args.n
    P = pipe.p

    def lemma_routes(size, bound):
        # the brute count of size-tuples of partitions against the product
        # formula, at every vector of class sums of total <= bound
        gf = pa.partition_product_gf(n, size, bound)
        counts = pa.partition_class_counts(n, size, bound)
        for sums in tuples_with_sum_at_most(n, bound):
            if counts.get(sums, 0) != pa.series_int_coeff(gf, sums):
                return {"status": "fail", "witness": f"sums={sums}"}
        return {"status": "pass"}

    tuple_bound = min(args.bound, 3)
    checks = [
        (
            "partition_gf",
            {"bound": args.bound},
            lambda: lemma_routes(1, args.bound),
        ),
        (
            "partition_tuple_gf",
            {"bound": tuple_bound},
            lambda: lemma_routes(n, tuple_bound),
        ),
    ]

    amax = min(args.trunc, 5)
    if n % 2:

        def chains():
            for a in range(min(amax, 3) + 1):
                counts = {
                    pa.count_reduction_chains(n, a),
                    pa.count_reduction_chains(n, a, simplified=False),
                    P[a].constant_coeff(),
                    pa.series_int_coeff(pipe.r_diag, (a,)),
                }
                if len(counts) > 1:
                    return {"status": "fail", "witness": f"a={a}: {sorted(counts)}"}
            return {"status": "pass"}

        checks.append(("reduction_chains", {"amax": min(amax, 3)}, chains))
    else:

        def evenness():
            for a in range(amax + 1):
                if a % 2 and P[a]:
                    return {"status": "fail", "witness": f"odd-degree term at a={a}"}
                low = P[a].constant_coeff() if P[a] else 0
                prod = pa.series_int_coeff(pipe.r_diag, (a,))
                if low != prod:
                    return {"status": "fail", "witness": f"a={a}: {low} != {prod}"}
            return {"status": "pass"}

        checks.append(("even_series_lowest_terms", {"amax": amax}, evenness))
    return checks


SUITES = {
    "axioms": _suite_axioms,
    "fe": _suite_fe,
    "residue": _suite_residue,
    "partitions": _suite_partitions,
}


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the report's values: str-keyed
    dicts, lists or tuples, and JSON scalars. Each str and int goes to a C
    routine, in place of the pure-Python encoder that ``indent`` selects."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, (dict, list, tuple)) and value:
        inner = indent + "  "
        if isinstance(value, dict):
            items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]"
    return json.dumps(value)


def _run_and_report(args, checks, strict: bool = False) -> int:
    """Run (name, params, fn) checks in order and write the JSON report.

    Returns the exit code: 1 if a check failed (with ``strict``, if any
    check did not pass), else 0.
    """

    def run(entry):
        name, params, fn = entry
        try:
            result = fn()
        except Exception as exc:  # a crashed check is a failed check
            result = {"status": "fail", "witness": f"{type(exc).__name__}: {exc}"}
        out = {"name": name, "params": params, "status": result["status"]}
        if "witness" in result:
            out["witness"] = result["witness"]
        return out

    results = [run(entry) for entry in checks]

    report = {
        "meta": {"n": args.n, "q0": args.q, "D": args.trunc, "version": __version__},
        "checks": results,
    }
    _write(args.out, _json(report) + "\n")
    if strict:
        failed = any(c["status"] != "pass" for c in results)
    else:
        failed = any(c["status"] == "fail" for c in results)
    return 1 if failed else 0


def admit_verify(args) -> None:
    """Refuse trunc < bound, then price the run before the pipeline is built.

    The pipeline's reachability box is priced first, and when the axioms
    suite runs, alone or in ``all``, its local-to-global batch next: over
    its limit either raises with the estimate, and ``main`` exits 2
    before the pipeline is built or a report written.
    """
    if args.trunc < args.bound:
        raise ValueError("--trunc must be at least --bound")
    enforce_box_limit(res.n_even_vars(args.n), args.trunc)
    if args.suite in ("axioms", "all"):
        gw.slice_batch(field(args.q), tuples_with_sum_at_most(args.n + 1, args.bound))


def cmd_verify(args) -> int:
    """Run the chosen suites on one residue pipeline, built to the report's D.

    A reduction lowers the index sum, so an index t reaches c_{a,...,a}
    only when (n+1)*a <= sum(t). No check reduces an index with sum(t) >
    3*trunc + 1, so for n >= 2 the seed is read at a <= trunc. P and the
    product's diagonal R_diag are read to at most max(bound, min(trunc,
    5)), and ``admit_verify`` refuses trunc < bound. So the pipeline of
    degree trunc serves every check.
    """
    pipe = res.run_pipeline(args.n, args.trunc)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = [check for name in names for check in SUITES[name](args, pipe)]
    return _run_and_report(args, checks, strict=args.strict)


def admit_moments(args) -> None:
    if args.n != 3:
        raise ValueError("the identity is specific to n=3")
    lf.check_moment_cost(args.q, args.trunc)


def cmd_moments(args) -> int:
    fq = field(args.q)
    check = (
        "moment_identity",
        {"dmax": args.trunc},
        lambda: lf.moment_identity_check(fq, args.trunc),
    )
    return _run_and_report(args, [check])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mdslab")
    sub = parser.add_subparsers(dest="command", required=True)
    coeffs = sub.add_parser("coeffs")
    verify = sub.add_parser("verify")
    moments = sub.add_parser("moments")
    # each subcommand registers only the options it reads
    for p, fn, admit in (
        (coeffs, cmd_coeffs, admit_coeffs),
        (verify, cmd_verify, admit_verify),
        (moments, cmd_moments, admit_moments),
    ):
        p.set_defaults(fn=fn, admit=admit)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--out", default=None)
    for p in (verify, moments):
        p.add_argument("--q", type=int, default=5)
        p.add_argument("--trunc", type=int, default=6, help="truncation D for series checks")
    for p in (coeffs, verify):
        p.add_argument("--bound", type=int, default=4, help="degree bound for tables")
    verify.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    verify.add_argument("--strict", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # only the admission is guarded: a ValueError that the work itself
    # raises is no refused invocation, and exits 1 with its traceback
    try:
        if args.n < 2:
            raise ValueError("n must be at least 2")
        if "q" in vars(args) and args.q not in SUPPORTED_Q:
            raise ValueError(f"unsupported q={args.q}; choose from {sorted(SUPPORTED_Q)}")
        for name in ("bound", "trunc"):
            if vars(args).get(name, 0) < 0:
                raise ValueError(f"--{name} must be nonnegative")
        args.admit(args)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
