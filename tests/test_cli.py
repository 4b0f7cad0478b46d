import csv
import json
import subprocess
import sys

import pytest

from mdslab.cli import main


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
