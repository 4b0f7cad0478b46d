"""Tests of the digest runner itself: python -m pytest digests"""

import json

import check_digests

# the cheapest entry that writes a report
ENTRY = next(e for e in json.loads(check_digests.TABLE.read_text()) if e["argv"][0] == "coeffs")

# the CLI with the first byte of its report changed
ONE_BYTE_CHANGED = """
import io, sys
from mdslab.cli import main
out, sys.stdout = sys.stdout, io.StringIO()
code = main(sys.argv[1:])
text = sys.stdout.getvalue()
out.write(chr(ord(text[0]) ^ 1) + text[1:])
sys.exit(code)
"""


def test_a_table_entry_matches():
    line = check_digests.run_entry(ENTRY)
    assert line["result"] == "match", line
    assert (line["sha256"], line["exit"]) == (ENTRY["sha256"], ENTRY["exit"])


def test_one_changed_report_byte_is_a_mismatch(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(check_digests, "CHILD", ONE_BYTE_CHANGED)
    table = tmp_path / "table.json"
    table.write_text(json.dumps([ENTRY]))
    monkeypatch.setattr(check_digests, "TABLE", table)
    assert check_digests.main() == 1
    [line] = map(json.loads, capsys.readouterr().out.splitlines())
    assert line["result"] == "mismatch"
    assert line["exit"] == ENTRY["exit"] and line["sha256"] != ENTRY["sha256"]
    assert line["want"] == {"sha256": ENTRY["sha256"], "exit": ENTRY["exit"]}


def test_a_hung_entry_times_out(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(check_digests, "timeout_for", lambda entry: 0.01)
    table = tmp_path / "table.json"
    table.write_text(json.dumps([ENTRY]))
    monkeypatch.setattr(check_digests, "TABLE", table)
    assert check_digests.main() == 0
    [line] = map(json.loads, capsys.readouterr().out.splitlines())
    assert line["result"] == "timeout"
