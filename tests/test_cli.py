import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from test_fqpoly import poly

from mdslab.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv, tmp_path, name="out"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def test_coeffs_csv(tmp_path):
    code, out = run_cli(["coeffs", "--n", "2", "--bound", "3"], tmp_path)
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["a_0", "a_1", "a_2", "coeff"]
    table = {tuple(r[:3]): r[3] for r in rows[1:]}
    assert table[("0", "0", "0")] == "0:1"
    assert table[("0", "1", "0")] == "4:1"
    assert table[("1", "1", "0")] == ""
    # every index with sum <= 3 appears exactly once
    assert len(rows) - 1 == len(set(table)) == 20


def test_coeffs_byte_reproducible(tmp_path):
    _, a = run_cli(["coeffs", "--n", "3", "--bound", "3"], tmp_path, "a")
    _, b = run_cli(["coeffs", "--n", "3", "--bound", "3"], tmp_path, "b")
    assert a.read_bytes() == b.read_bytes()


def test_verify_report_schema(tmp_path):
    code, out = run_cli(
        ["verify", "--n", "2", "--suite", "axioms", "--bound", "3", "--trunc", "3"],
        tmp_path,
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["meta"]["n"] == 2
    assert report["meta"]["q0"] == 5
    assert report["meta"]["D"] == 3
    assert "version" in report["meta"]
    assert report["checks"], "suite must not be empty"
    for check in report["checks"]:
        assert set(check) <= {"name", "params", "status", "witness"}
        assert check["status"] == "pass", check


def test_verify_byte_reproducible(tmp_path):
    argv = ["verify", "--n", "3", "--suite", "fe", "--bound", "3", "--trunc", "3"]
    _, a = run_cli(argv, tmp_path, "a")
    _, b = run_cli(argv, tmp_path, "b")
    assert a.read_bytes() == b.read_bytes()


def test_verify_all_suites_n3(tmp_path):
    code, out = run_cli(
        ["verify", "--n", "3", "--suite", "all", "--bound", "3", "--trunc", "3"],
        tmp_path,
    )
    assert code == 0
    report = json.loads(out.read_text())
    names = {c["name"] for c in report["checks"]}
    assert {"dominance", "lambda_fe", "pipeline_consistency", "partition_gf"} <= names


def test_residue_suite_n8(tmp_path):
    argv = ["verify", "--n", "8", "--suite", "residue", "--bound", "4", "--trunc", "4"]
    code, out = run_cli(argv, tmp_path)
    assert code == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks
    for check in checks:
        assert check["status"] == "pass", check


def test_strict_flags_special_cases(tmp_path):
    # n = 2 carries two unverified-special-case checks in the residue suite
    argv = ["verify", "--n", "2", "--suite", "residue", "--bound", "3", "--trunc", "3"]
    code, out = run_cli(argv, tmp_path, "lax")
    assert code == 0
    report = json.loads(out.read_text())
    specials = [c for c in report["checks"] if c["status"] == "unverified special case"]
    assert len(specials) == 2
    code, _ = run_cli(argv + ["--strict"], tmp_path, "strict")
    assert code == 1


def test_moments(tmp_path):
    code, out = run_cli(["moments", "--n", "3", "--trunc", "1"], tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["name"] == "moment_identity"
    assert report["checks"][0]["status"] == "pass"


def test_moments_wrong_n(tmp_path, capsys):
    assert main(["moments", "--n", "2", "--trunc", "1"]) == 2


@pytest.mark.parametrize(
    "q, trunc, estimate", [("17", "4", "1.9e+09"), ("5", "7", "1.7e+10")]
)
def test_oversized_moments_exit_2(q, trunc, estimate, capsys):
    start = time.perf_counter()
    assert main(["moments", "--n", "3", "--q", q, "--trunc", trunc]) == 2
    assert time.perf_counter() - start < 1
    assert f"evaluates {estimate} residue symbols" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--n", "40", "--bound", "2"],
        ["verify", "--n", "40", "--suite", "residue", "--bound", "2", "--trunc", "2"],
        ["verify", "--n", "40", "--bound", "2", "--trunc", "2"],
    ],
)
def test_oversized_reachability_box_exit_2(argv, tmp_path, monkeypatch, capsys):
    # the box [0, 2]^21 of n = 40 has 3^21 cells; numpy's allocators in
    # series raise here, so the array is never asked for
    from mdslab import series

    def refuse(*args, **kwargs):
        raise AssertionError("the reachability array was allocated")

    monkeypatch.setattr(series.np, "zeros", refuse)
    monkeypatch.setattr(series.np, "full", refuse)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the diagonal to degree 2 in 21 variables needs about 8.4e+10 bytes" in err
    assert not out.exists()


def test_raising_moment_check_fails(tmp_path, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("mdslab.lfunctions.moment_identity_check", boom)
    code, out = run_cli(["moments", "--n", "3", "--trunc", "1"], tmp_path)
    assert code == 1
    [check] = json.loads(out.read_text())["checks"]
    assert check["name"] == "moment_identity"
    assert check["status"] == "fail"
    assert check["witness"] == "RuntimeError: boom"


@pytest.mark.parametrize(
    "argv",
    [["coeffs", "--q", "5"], ["moments", "--bound", "4"], ["moments", "--strict"]],
)
def test_options_a_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_usage_errors(capsys):
    assert main(["verify", "--n", "1"]) == 2
    assert main(["verify", "--q", "7"]) == 2
    assert main(["verify", "--bound", "4", "--trunc", "3"]) == 2
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "--n", "3", "--bound", "-1", "--trunc", "-1"], "--bound"),
        (["verify", "--n", "3", "--bound", "0", "--trunc", "-1"], "--trunc"),
        (["moments", "--n", "3", "--trunc", "-1"], "--trunc"),
        (["coeffs", "--n", "3", "--bound", "-2"], "--bound"),
    ],
)
def test_negative_degrees_exit_2(argv, option, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{option} must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_raising_check_fails_alone(tmp_path, monkeypatch):
    from mdslab import partitions

    argv = ["verify", "--n", "2", "--suite", "partitions", "--bound", "3", "--trunc", "3"]
    _, out = run_cli(argv, tmp_path, "clean")
    clean = json.loads(out.read_text())["checks"]
    product_gf = partitions.partition_product_gf

    def boom(n, size, bound):
        if size == 1:
            raise RuntimeError("boom")
        return product_gf(n, size, bound)

    # partition_gf, the first check of the suite, is the only caller at size 1
    monkeypatch.setattr(partitions, "partition_product_gf", boom)
    code, out = run_cli(argv, tmp_path, "raised")
    assert code == 1
    checks = json.loads(out.read_text())["checks"]
    assert [(c["name"], c["params"]) for c in checks] == [
        (c["name"], c["params"]) for c in clean
    ]
    assert checks[0]["name"] == "partition_gf"
    assert checks[0]["status"] == "fail"
    assert checks[0]["witness"] == "RuntimeError: boom"
    assert len(checks) > 1
    assert all(c["status"] == "pass" for c in checks[1:])


def test_stdout_output():
    # the child imports mdslab from this checkout, as pytest's pythonpath does
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mdslab.cli", "coeffs", "--n", "2", "--bound", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("a_0,a_1,a_2,coeff")


def test_benchmark_reports_match_pinned_digests(monkeypatch, capsys):
    # the workloads and report digests that perfbench/run.py pins, run in process
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # dataclasses look the module up
    spec.loader.exec_module(bench)
    assert bench.WORKLOADS
    for name, workload in bench.WORKLOADS.items():
        capsys.readouterr()
        assert main(list(workload.argv)) == 0, name
        report = capsys.readouterr().out.encode()
        assert hashlib.sha256(report).hexdigest() == workload.sha256, name


RESIDUE_DIGESTS = {
    7: "bcb9daa2289c1157c97f2927315eabcb5b51c3a18c92cc9b1dacb2cad13c4bf3",
    8: "72deff3d9de19c33848bba3d7388ad5fa599b19f99a68f4b4566c717ad4fb4b5",
}


@pytest.mark.parametrize("n", sorted(RESIDUE_DIGESTS))
def test_larger_residue_reports_match_pinned_digests(capsys, n):
    # the residue-n6 workload at n = 7 and 8, where the diagonal expansion
    # prunes most of the box [0, D]^k
    argv = ["verify", "--n", str(n), "--q", "5", "--suite", "residue", "--bound", "6", "--trunc", "6"]
    capsys.readouterr()
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == RESIDUE_DIGESTS[n]


PARTITIONS_DIGESTS = {
    3: "a6b7dcab302e75c527e55d86f9bd5b1258ff3ee87b5c61e9c99c88f9eee4e050",
    6: "381cd6965cd20fe2d4fb39592992f71a3d8320d95c4acd32d127bfd85d78629c",
    9: "021f6d4ba1d2b729b2dded8f35654ab9a9bbdecafe1e97c7af63e3731cfb0706",
}


@pytest.mark.parametrize("n", sorted(PARTITIONS_DIGESTS))
def test_partitions_reports_match_pinned_digests(capsys, n):
    # pinned from the per-sums partition counts over the box [0, trunc]^n
    argv = ["verify", "--n", str(n), "--q", "5", "--suite", "partitions", "--bound", "4", "--trunc", "6"]
    capsys.readouterr()
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PARTITIONS_DIGESTS[n]


LEMMA_CHECKS_N11 = """
import argparse, types
from mdslab import cli
args = argparse.Namespace(n=11, q=5, bound=4, trunc=6)
# the two lemma checks never read the residue pipeline
checks = cli._suite_partitions(args, types.SimpleNamespace(p=None, seed=None))[:2]
assert [name for name, _, _ in checks] == ["partition_gf", "partition_tuple_gf"]
for name, _, fn in checks:
    assert fn() == {"status": "pass"}, name
"""


def test_partition_lemma_checks_finish_at_n11():
    # the checks compare the C(15, 4) = 1365 class-sum vectors of total
    # <= 4; a scan of the box [0, 6]^11 would visit 7^11 of them
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LEMMA_CHECKS_N11],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# {(q, bound): (trunc, digest)}
FE_DIGESTS = {
    (13, 6): (6, "d579220e58b0069155842af41ff9421affc9b4c3b2c730f5d0666ee29ea92a04"),
    (17, 4): (6, "cdb16eb9a998d86336cf42eded7ea1b0b3e4c92af37be04283cba336cbd51333"),
    (29, 4): (4, "e22e3b991df3e0fff83aa44a1c57edbd1b777de5d4e52565a6c9a1e31b5d3b27"),
}


@pytest.mark.parametrize("q, bound", sorted(FE_DIGESTS))
def test_fe_reports_at_larger_q_match_pinned_digests(capsys, q, bound):
    # the fe suite at n = 2 beyond q = 5: l_series_fe sweeps slices whose
    # moduli have primes of degree up to 3, one slice per orbit of
    # translations and square scalings of its 1 + 2q + 3q^2 + 4q^3 pairs
    trunc, digest = FE_DIGESTS[q, bound]
    argv = ["verify", "--n", "2", "--q", str(q), "--suite", "fe", "--bound", str(bound), "--trunc", str(trunc)]
    capsys.readouterr()
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


AXIOMS_DIGESTS = {
    (2, 17, 5): "f059be76bc2f748c29fd6a673aa7cdf00ce6243b2f438daf7186efd703ba3249",
    (3, 13, 4): "7230dafccacf97df3bb7dac915ac9f8701e0a3fb211331006b3700c9fd4e21fb",
    (2, 17, 6): "8b9e38637e7cf2a5f007584a0c12c9a907c03a25986375805f1b75d7021c71b1",
    (2, 17, 7): "08722303af834fdc32f1b83e14408cf1bbbff23d10b43f77c2b2e0dfba9bc881",
    (3, 29, 6): "1ee11ecadb46ad1ea2cf1f41c74a7fc97726a0c541f09a683e651ce8bc15b401",
}


@pytest.mark.parametrize("n, q, bound", sorted(AXIOMS_DIGESTS))
def test_axioms_reports_at_larger_q_match_pinned_digests(capsys, n, q, bound):
    # the axioms suite beyond q = 5, --trunc equal to --bound:
    # local_to_global sums thousands of slices built from a few dozen
    # distinct Euler factors
    argv = ["verify", "--n", str(n), "--q", str(q), "--suite", "axioms", "--bound", str(bound), "--trunc", str(bound)]
    capsys.readouterr()
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == AXIOMS_DIGESTS[n, q, bound]


MOMENTS_DIGESTS = {
    # degree 5 has no translation pivot at q=5: the quintics are summed
    # over the orbits of the square scalings alone
    (5, 5): "91aca1fdf367a06bb27a33cc3ca36e9c99bc6936f909ce1ed4c9337950ca26de",
    (13, 3): "722c617def22db4f16600df8b938d0ddcf51d25f359549f990ef93309ac3f0f0",
    (17, 3): "69d6fc92885464a228fa02d0c6bfabfe20c3696b39cc1083fc00b10e2498b933",
    # priced at 2.9e8 symbols by the translation representatives (5.7e9
    # without orbits)
    (13, 4): "9ba630833bbe6e010250573b74b6a3d6f77695160a95f26b56a01cb9b1e7ce4e",
}


@pytest.mark.parametrize("q, trunc", sorted(MOMENTS_DIGESTS))
def test_moments_reports_match_pinned_digests(capsys, q, trunc):
    argv = ["moments", "--n", "3", "--q", str(q), "--trunc", str(trunc)]
    capsys.readouterr()
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == MOMENTS_DIGESTS[q, trunc]


@pytest.mark.parametrize("suite", ["axioms", "all"])
def test_over_budget_verify_exits_2_before_the_pipeline(tmp_path, monkeypatch, capsys, suite):
    from mdslab import residue

    def unreachable(*args):
        raise AssertionError("the pipeline was built")

    monkeypatch.setattr(residue, "run_pipeline", unreachable)
    out = tmp_path / "report.json"
    argv = ["verify", "--n", "5", "--q", "5", "--suite", suite, "--bound", "10", "--trunc", "10"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "verify: enumeration budget exceeded: 6 * 66825531 = 400953186 > 100000000\n"
    assert not out.exists()


def test_checks_return_status_and_witness_only(monkeypatch):
    # every check returns exactly what the report reads; check_rh keeps its
    # numeric deviation, and check_moment_cost raises rather than reports
    from mdslab import globalweights, lfunctions, reducer, residue, series
    from mdslab.fqpoly import ONE, field
    from mdslab.qlaurent import QL_ONE

    fq = field(5)
    pipe = residue.run_pipeline(2, 8)
    seed = pipe.seed

    def check_fe_with_table(n, key, table):
        # check_fe on a generator table with a wrong matrix: a failing FE
        with monkeypatch.context() as patch:
            patch.setattr(residue, "fe_generators", lambda n: table)
            return residue.check_fe(n, key)
    flat = reducer.DiagonalSeed([QL_ONE] * 20, name="flat")
    t = poly(fq, [0, 1])
    calls = {
        "check_dominance": [
            lambda: reducer.check_dominance((1, 1, 0), seed),
            lambda: reducer.check_dominance((0, 0, 0), seed),
            lambda: reducer.check_dominance((2, 2, 2), flat),
        ],
        "check_reversal": [
            lambda: reducer.check_reversal([1, 7, 5], 2, lambda j: Fraction(5) ** j),
            lambda: reducer.check_reversal([1, 7, 5, 1], 2, lambda j: Fraction(5) ** j),
        ],
        "check_lambda_fe": [
            lambda: reducer.check_lambda_fe((1, 0, 2), 1, seed),
        ],
        "check_diagonal_determination": [
            lambda: series.check_diagonal_determination(2, seed, flat, 4),
        ],
        "check_pipeline_consistency": [
            lambda: residue.check_pipeline_consistency(2, 4, seed),
            lambda: residue.check_pipeline_consistency(2, 4, flat),
        ],
        "check_factor_pairing": [lambda: residue.check_factor_pairing(3)],
        "check_euler_substitution": [lambda: residue.check_euler_substitution(2, 1, 3, seed)],
        "check_fe": [
            lambda: residue.check_fe(3, 0),
            lambda: check_fe_with_table(3, 0, {0: ([[1, 0], [0, 1]], [((2, 0), 0)])}),
            lambda: residue.check_fe(4, "edge"),
            lambda: residue.check_fe(6, "edge"),
        ],
        "reconstruct_R1": [
            lambda: residue.reconstruct_R1(2, 4, pipe),
            lambda: residue.reconstruct_R1(2, 4, replace(pipe, p=[QL_ONE] * 5)),
        ],
        "l_series_H": [
            lambda: globalweights.l_series_H(fq, (t, ONE, t, ONE), 1, 3, seed),
        ],
        "check_l_fe": [lambda: lfunctions.check_l_fe(fq, poly(fq, [1, 0, 0, 1]))],
        "moment_identity_check": [lambda: lfunctions.moment_identity_check(fq, 1)],
    }
    public = {
        name
        for mod in (reducer, residue, series, globalweights, lfunctions)
        for name in vars(mod)
        if name.startswith("check_")
    }
    assert public - {"check_rh", "check_moment_cost"} <= set(calls)
    statuses = set()
    for name, fns in calls.items():
        for fn in fns:
            result = fn()
            assert set(result) <= {"status", "witness"}, (name, result)
            assert ("witness" in result) == (result["status"] in ("fail", "boundary")), name
            statuses.add(result["status"])
    assert {"pass", "fail", "unverified special case"} <= statuses


def failing_check(argv, tmp_path, name):
    """The witness of the one failing check ``name`` of a verify run."""
    code, out = run_cli(argv, tmp_path)
    assert code == 1
    [check] = [c for c in json.loads(out.read_text())["checks"] if c["name"] == name]
    assert check["status"] == "fail", check
    return check["witness"]


def test_unit_tuples_fails_on_a_bumped_coefficient(tmp_path, monkeypatch):
    from mdslab import cli
    from mdslab.qlaurent import QL_ONE

    real = cli.reduce_coeff
    monkeypatch.setattr(cli, "reduce_coeff", lambda t, seed: real(t, seed) + QL_ONE)
    argv = ["verify", "--n", "2", "--suite", "axioms", "--bound", "2", "--trunc", "2"]
    assert failing_check(argv, tmp_path, "unit_tuples").startswith("c at (1, 0, 0) = ")


def test_residue_h_route_fails_on_a_bumped_sum(tmp_path, monkeypatch):
    from mdslab import residue

    real = residue.residue_coeff_H_route
    monkeypatch.setattr(residue, "residue_coeff_H_route", lambda *args: real(*args) + 1)
    argv = ["verify", "--n", "2", "--suite", "residue", "--bound", "2", "--trunc", "2"]
    assert failing_check(argv, tmp_path, "residue_h_route") == "avec=(0, 0): 2 != 1"


def test_partition_lemmas_fail_on_bumped_counts(tmp_path, monkeypatch):
    from mdslab import partitions

    real = partitions.partition_class_counts

    def bumped(n, size, bound):
        return {sums: count + 1 for sums, count in real(n, size, bound).items()}

    monkeypatch.setattr(partitions, "partition_class_counts", bumped)
    argv = ["verify", "--n", "2", "--suite", "partitions", "--bound", "2", "--trunc", "2"]
    for name in ("partition_gf", "partition_tuple_gf"):
        assert failing_check(argv, tmp_path, name) == "sums=(0, 0)"


def test_reduction_chains_fail_on_a_bumped_count(tmp_path, monkeypatch):
    from mdslab import partitions

    real = partitions.count_reduction_chains
    monkeypatch.setattr(partitions, "count_reduction_chains", lambda *args, **kw: real(*args, **kw) + 1)
    argv = ["verify", "--n", "3", "--suite", "partitions", "--bound", "2", "--trunc", "2"]
    assert failing_check(argv, tmp_path, "reduction_chains") == "a=0: [1, 2]"


@pytest.mark.parametrize("a, witness", [(1, "odd-degree term at a=1"), (2, "a=2: ")])
def test_even_series_lowest_terms_fail_on_a_bumped_P(tmp_path, monkeypatch, a, witness):
    from mdslab import residue
    from mdslab.qlaurent import QL_ONE

    real = residue.run_pipeline

    def bumped(n, max_degree):
        pipe = real(n, max_degree)
        return replace(pipe, p=[c + QL_ONE if b == a else c for b, c in enumerate(pipe.p)])

    monkeypatch.setattr(residue, "run_pipeline", bumped)
    argv = ["verify", "--n", "2", "--suite", "partitions", "--bound", "2", "--trunc", "2"]
    assert failing_check(argv, tmp_path, "even_series_lowest_terms").startswith(witness)


def test_boundary_checks_fail_only_strict_runs(tmp_path, monkeypatch):
    boundary = {"status": "boundary", "witness": "at the bound"}
    monkeypatch.setattr("mdslab.cli.check_dominance", lambda t, seed: boundary)
    argv = ["verify", "--n", "2", "--suite", "axioms", "--bound", "1", "--trunc", "1"]
    code, out = run_cli(argv, tmp_path, "lax")
    assert code == 0
    checks = json.loads(out.read_text())["checks"]
    assert {c["status"] for c in checks if c["name"] == "dominance"} == {"boundary"}
    assert {c["status"] for c in checks if c["name"] != "dominance"} == {"pass"}
    code, _ = run_cli(argv + ["--strict"], tmp_path, "strict")
    assert code == 1


REPORT_ARGVS = [
    ["verify", "--n", str(n), "--suite", suite, "--bound", "2", "--trunc", "3"]
    for n in (2, 3, 4)
    for suite in ("axioms", "fe", "residue", "partitions", "all")
] + [["moments", "--n", "3", "--trunc", "2"]]


@pytest.mark.parametrize("argv", REPORT_ARGVS, ids=" ".join)
def test_reports_are_written_as_json_dumps_writes_them(tmp_path, argv):
    # json.dumps(report, indent=2) is the oracle of the report writer
    _, out = run_cli(argv, tmp_path)
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


# witnesses that need escapes, and values of every JSON type a report may hold
WITNESSES = [
    'say "no"', "back\\slash", "two\nlines", "a\ttab", "ctrl \x01", "β = 1/2", "clef \U0001d11e"
]
ODD_PARAMS = [
    {},
    {"empty": [], "none": {}},
    {"grid": [[0, 1], [], [[2], [-3]]]},
    {"small": -7, "large": 2**64 + 1, "neg_large": -(2**70)},
    {"yes": True, "no": False, "nothing": None, "ratio": 0.25},
]
NESTED = [[], [[]], (1, [2, (3,)]), [WITNESSES, ODD_PARAMS]]
SCALARS = [-1, 0, 2**64, True, False, None, 1.5, -0.0, "", 'é"']


@pytest.mark.parametrize("value", WITNESSES + ODD_PARAMS + NESTED + SCALARS)
def test_writer_equals_json_dumps_on_odd_values(value):
    from mdslab import cli

    assert cli._json(value) == json.dumps(value, indent=2)


def test_failed_checks_with_odd_witnesses_are_written_as_json_dumps_writes_them(tmp_path):
    import argparse

    from mdslab import cli

    out = tmp_path / "out"
    args = argparse.Namespace(n=3, q=5, trunc=2, out=str(out))
    checks = [
        ("odd", params, lambda w=w: {"status": "fail", "witness": w})
        for params, w in zip(ODD_PARAMS * 2, WITNESSES)
    ]
    checks.append(("plain", {"t": [0, 1]}, lambda: {"status": "pass"}))
    assert cli._run_and_report(args, checks) == 1
    text = out.read_text()
    report = json.loads(text)
    assert [c.get("witness") for c in report["checks"]] == WITNESSES + [None]
    assert text == json.dumps(report, indent=2) + "\n"


FE_N3 = ["verify", "--n", "3", "--q", "5", "--suite", "fe", "--bound", "4"]


def slice_of(fixed, i):
    """The (i, others) of the one-variable slice through fixed at slot i."""
    return i, tuple(fixed[:i]) + tuple(fixed[i + 1 :])


def test_fe_suite_checks_each_lambda_fe_slice_once(tmp_path, monkeypatch):
    # check_lambda_fe(fixed, i) ignores fixed[i]: the 280 entries of the
    # n = 3, bound 4 suite name 140 slices (i, others)
    from mdslab import cli

    calls = []
    real = cli.check_lambda_fe

    def counted(fixed, i, seed):
        calls.append(slice_of(fixed, i))
        return real(fixed, i, seed)

    monkeypatch.setattr(cli, "check_lambda_fe", counted)
    code, out = run_cli(FE_N3, tmp_path)
    assert code == 0
    entries = [c for c in json.loads(out.read_text())["checks"] if c["name"] == "lambda_fe"]
    assert len(entries) == 280
    assert len(calls) == len(set(calls)) == 140
    assert {slice_of(c["params"]["fixed"], c["params"]["i"]) for c in entries} == set(calls)


@pytest.mark.parametrize("i, others", [(1, (1, 0, 1)), (0, (0, 0, 0)), (3, (2, 0, 1))])
def test_a_failing_lambda_fe_slice_fails_every_entry_that_names_it(tmp_path, monkeypatch, i, others):
    from mdslab import cli

    witness = f"stub fails slice {i} of {others}"

    def stub(fixed, j, seed):
        if slice_of(fixed, j) == (i, others):
            return {"status": "fail", "witness": witness}
        return {"status": "pass"}

    monkeypatch.setattr(cli, "check_lambda_fe", stub)
    code, out = run_cli(FE_N3, tmp_path)
    assert code == 1
    failed = [c for c in json.loads(out.read_text())["checks"] if c["status"] != "pass"]
    assert len(failed) == 4 - sum(others) + 1
    for c in failed:
        assert c["name"] == "lambda_fe"
        assert slice_of(c["params"]["fixed"], c["params"]["i"]) == (i, others)
        assert c["witness"] == witness
