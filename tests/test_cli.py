import csv
import hashlib
import importlib.util
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

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
    "q, trunc, estimate", [("5", "6", "3.0e+09"), ("29", "3", "3.2e+09")]
)
def test_oversized_moments_exit_2(q, trunc, estimate, capsys):
    start = time.perf_counter()
    assert main(["moments", "--n", "3", "--q", q, "--trunc", trunc]) == 2
    assert time.perf_counter() - start < 1
    assert f"evaluates {estimate} residue symbols" in capsys.readouterr().err


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


def test_raising_check_fails_alone(tmp_path, monkeypatch):
    argv = ["verify", "--n", "2", "--suite", "partitions", "--bound", "3", "--trunc", "3"]
    _, out = run_cli(argv, tmp_path, "clean")
    clean = json.loads(out.read_text())["checks"]

    def boom(*args):
        raise RuntimeError("boom")

    # partition_gf, the first check of the suite, is the only caller
    monkeypatch.setattr("mdslab.partitions.partition_product_gf", boom)
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
    proc = subprocess.run(
        [sys.executable, "-m", "mdslab.cli", "coeffs", "--n", "2", "--bound", "2"],
        capture_output=True,
        text=True,
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


FE_DIGESTS = {
    (13, 6): "d579220e58b0069155842af41ff9421affc9b4c3b2c730f5d0666ee29ea92a04",
    (17, 4): "cdb16eb9a998d86336cf42eded7ea1b0b3e4c92af37be04283cba336cbd51333",
}


@pytest.mark.parametrize("q, bound", sorted(FE_DIGESTS))
def test_fe_reports_at_larger_q_match_pinned_digests(capsys, q, bound):
    # the fe suite at n = 2 beyond q = 5: l_series_fe sweeps slices whose
    # moduli have primes of degree up to 3
    argv = ["verify", "--n", "2", "--q", str(q), "--suite", "fe", "--bound", str(bound), "--trunc", "6"]
    capsys.readouterr()
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == FE_DIGESTS[q, bound]


def test_checks_return_status_and_witness_only():
    # every check returns exactly what the report reads; check_rh keeps its
    # numeric deviation, and check_moment_cost raises rather than reports
    from mdslab import globalweights, lfunctions, reducer, residue
    from mdslab.fqpoly import ONE, field
    from mdslab.qlaurent import QL_ONE

    fq = field(5)
    pipe = residue.run_pipeline(2, 8)
    seed = pipe.seed
    flat = reducer.DiagonalSeed([QL_ONE] * 20, name="flat")
    t = fq.poly([0, 1])
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
            lambda: reducer.check_diagonal_determination(2, seed, flat, 4),
        ],
        "check_pipeline_consistency": [
            lambda: residue.check_pipeline_consistency(2, 4, seed),
            lambda: residue.check_pipeline_consistency(2, 4, flat),
        ],
        "check_factor_pairing": [lambda: residue.check_factor_pairing(3, 6)],
        "check_euler_substitution": [lambda: residue.check_euler_substitution(2, 1, 3, seed)],
        "check_resfe": [lambda: residue.check_resfe(3, 0, 6)],
        "_check_factor_permutation": [
            lambda: residue._check_factor_permutation(3, [[1, 0], [0, 1]], [((2, 0), 0)], 6),
        ],
        "check_neven_fe": [
            lambda: residue.check_neven_fe(4, "edge", 6),
            lambda: residue.check_neven_fe(6, "edge", 6),
        ],
        "reconstruct_R1": [
            lambda: residue.reconstruct_R1(2, 4, pipe.p),
            lambda: residue.reconstruct_R1(2, 4, [QL_ONE] * 5),
        ],
        "l_series_H": [
            lambda: globalweights.l_series_H(fq, (t, ONE, t, ONE), 1, 3, seed),
        ],
        "check_l_fe": [lambda: lfunctions.check_l_fe(fq, fq.poly([1, 0, 0, 1]))],
        "moment_identity_check": [lambda: lfunctions.moment_identity_check(fq, 1)],
    }
    public = {
        name
        for mod in (reducer, residue, globalweights, lfunctions)
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
