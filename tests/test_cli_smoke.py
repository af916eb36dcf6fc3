"""The CLI smoke table: each row of ``cli_smoke.json`` runs one command
in-process through ``seqchain.cli.main`` and must exit with the row's status.
An exit-0 or exit-2 row gives the SHA-256 of the command's stdout, which must
match byte for byte; an exit-1 row must write nothing to stdout and exactly
one ``error:`` line to stderr.  A change that alters a row's output on
purpose records the new hash and names the row in CHANGES.md."""

import hashlib
import json
from pathlib import Path

import pytest

from seqchain.cli import main

ROWS = json.loads((Path(__file__).parent / "cli_smoke.json").read_text(encoding="utf-8"))


def test_rows_are_well_formed():
    assert len({row["id"] for row in ROWS}) == len(ROWS)
    for row in ROWS:
        assert set(row) <= {"id", "note", "argv", "exit", "stdout_sha256"}, row["id"]
        assert row["exit"] in (0, 1, 2) and "--out" not in row["argv"], row["id"]
        assert ("stdout_sha256" in row) == (row["exit"] != 1), row["id"]


@pytest.mark.parametrize("row", ROWS, ids=[row["id"] for row in ROWS])
def test_cli_smoke_row(capsys, row):
    status = main(row["argv"])
    out, err = capsys.readouterr()
    assert status == row["exit"], err
    if status == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == row["stdout_sha256"]
