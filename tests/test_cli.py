import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seqchain.cli import main
from seqchain.serialize import MAX_SPEC_DEPTH

NAT = '{"kind":"family","name":"nat"}'
ZERO = '{"kind":"finite","entries":[]}'
PROP28 = '{"kind":"family","name":"prop28"}'


def run_json(tmp_path: Path, argv, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_chain_lists_ten_members(tmp_path):
    code, raw = run_json(tmp_path, ["chain"])
    assert code == 0
    report = json.loads(raw)
    assert report["schema"] == "seqchain/1"
    assert len(report["chain"]) == 10
    assert report["chain"][0] == "ainf" and report["chain"][-1] == "cn0"


def test_chain_verify_all_pairs(tmp_path):
    code, raw = run_json(tmp_path, ["chain", "--verify"])
    assert code == 0
    report = json.loads(raw)
    assert report["verified"] is True
    assert len(report["witnesses"]) == 9
    assert all(w["verified"] for w in report["witnesses"])


def test_chain_verify_fault_injection(tmp_path, monkeypatch):
    # a witness that fails verification must surface as a nonzero exit
    monkeypatch.setattr("seqchain.cli.verify_witness", lambda *a, **k: False)
    code, raw = run_json(tmp_path, ["chain", "--verify"], name="forged.json")
    assert code == 1
    assert json.loads(raw)["verified"] is False


def test_classify_exit_codes(tmp_path):
    code, raw = run_json(tmp_path, ["classify", NAT, "linf"])
    assert code == 0
    assert json.loads(raw)["result"]["verdict"] == "out"

    code, raw = run_json(tmp_path, ["classify", ZERO, "hd"])
    assert code == 0
    assert json.loads(raw)["result"]["verdict"] == "in"

    # an opaque constructed sequence with no metadata stays undecided
    blind = '{"kind":"combine","terms":[["1/1","0/1",{"kind":"family","name":"nat"}]]}'
    code, raw = run_json(tmp_path, ["classify", blind, "linf"])
    assert code == 2
    assert json.loads(raw)["result"]["verdict"] == "undecided"


def test_classify_parse_error_exit_one(capsys):
    assert main(["classify", "{not json", "linf"]) == 1
    assert main(["classify", ZERO, "nosuchspace"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err


def test_decompose_report_table(tmp_path):
    code, raw = run_json(
        tmp_path,
        ["decompose", PROP28, "ainf", "--outer-range", "1:1", "--inner-range", "1:10"],
    )
    assert code == 0
    table = json.loads(raw)["table"]
    assert len(table) == 10
    assert table[0]["family"] == "FMk:1/1:1"
    assert table[0]["result"] == "violated" and table[0]["n"] == 2
    assert table[-1]["n"] == 128


def test_witness_command_and_spec_reingestion(tmp_path):
    code, raw = run_json(
        tmp_path,
        ["witness", "--inner", "lp:1", "--outer", "c0", "--support", '{"kind":"dyadic-row","j":2}'],
    )
    assert code == 0
    report = json.loads(raw)
    assert report["verified"] is True
    assert report["witness"]["inner"] == "lp:1/1"
    # the emitted sequence spec is a valid persistence format
    code, raw = run_json(
        tmp_path,
        ["classify", json.dumps(report["witness"]["sequence"]), "lp:1"],
        name="reingest.json",
    )
    assert code == 0
    assert json.loads(raw)["result"]["verdict"] == "out"


def test_approx_command(tmp_path):
    code, raw = run_json(
        tmp_path,
        [
            "approx",
            "--target", ZERO,
            "--outer", "c0",
            "--avoid", "lp:1",
            "--epsilon", "1/64",
        ],
    )
    assert code == 0
    report = json.loads(raw)
    assert report["epsilon"] == "1/64"
    assert "certificate" in report and "f" in report


def test_basis_and_recover_commands(tmp_path):
    code, raw = run_json(tmp_path, ["basis", "--inner", "lp:1", "--outer", "c0", "--count", "2"])
    assert code == 0
    report = json.loads(raw)
    assert report["verified"] is True
    assert set(report["basis"]["elements"]) == {"1", "2"}

    f_spec = json.dumps(
        {
            "kind": "combine",
            "terms": [["3/1", "0/1", report["basis"]["elements"]["1"]["sequence"]]],
        }
    )
    code, raw = run_json(
        tmp_path,
        ["recover", "--f", f_spec, "--inner", "lp:1", "--outer", "c0", "--j", "1"],
    )
    assert code == 0
    coeff = json.loads(raw)["coefficient"]
    assert coeff["exact"] is True and coeff["re"] == ["3/1", "3/1"]


def test_spec_from_file_and_stdin(tmp_path, monkeypatch):
    spec_file = tmp_path / "seq.json"
    spec_file.write_text(NAT, encoding="utf-8")
    code, raw = run_json(tmp_path, ["classify", f"@{spec_file}", "linf"])
    assert code == 0 and json.loads(raw)["result"]["verdict"] == "out"

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(NAT))
    code, raw = run_json(tmp_path, ["classify", "-", "linf"], name="stdin.json")
    assert code == 0 and json.loads(raw)["result"]["verdict"] == "out"


def test_global_flags_accepted_in_both_positions(tmp_path):
    a = run_json(tmp_path, ["--budget", "512", "classify", NAT, "linf"], name="a.json")
    b = run_json(tmp_path, ["classify", NAT, "linf", "--budget", "512"], name="b.json")
    assert a == b


def test_config_validation():
    assert main(["--budget", "0", "chain"]) == 1
    assert main(["--prec", "4", "chain"]) == 1


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_nonpositive_epsilon_is_a_one_line_error(capsys):
    argv = ["--epsilon", "0", "approx", "--target", ZERO, "--outer", "c0", "--avoid", "lp:1"]
    assert main(argv) == 1
    assert _one_line_error(capsys)


def test_recover_index_zero_is_a_one_line_error(capsys):
    argv = ["recover", "--f", ZERO, "--inner", "lp:1", "--outer", "c0", "--j", "0"]
    assert main(argv) == 1
    assert _one_line_error(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--verify"],
        ["classify", PROP28, "ainf"],
        ["decompose", PROP28, "ainf", "--outer-range", "1:1", "--inner-range", "1:3"],
        ["witness", "--inner", "linf", "--outer", "hd"],
        ["approx", "--target", ZERO, "--outer", "c0", "--avoid", "lp:1", "--epsilon", "1/16"],
        ["basis", "--inner", "hd", "--outer", "cn0", "--count", "2"],
    ],
    ids=lambda a: a[0],
)
def test_reports_byte_identical_across_runs(tmp_path, argv):
    _, first = run_json(tmp_path, argv + ["--seed", "7"], name="one.json")
    _, second = run_json(tmp_path, argv + ["--seed", "7"], name="two.json")
    assert first == second


@pytest.mark.parametrize(
    "flags",
    [
        ["--outer-range", "1:1", "--inner-range", "a:b"],
        ["--outer-range", "1-3"],
        ["--outer-range", ""],
    ],
    ids=["inner-letters", "outer-dash", "outer-empty"],
)
def test_bad_decompose_range_is_a_one_line_error(capsys, flags):
    assert main(["decompose", PROP28, "ainf"] + flags) == 1
    assert _one_line_error(capsys)


@pytest.mark.parametrize(
    "spec",
    [
        '{"kind":"finite","entries":[[0,1,0]]}',
        '{"kind":"finite","entries":[[1.5,"1","0"]]}',
        '{"kind":"finite","entries":[[true,"1","0"]]}',
        '{"kind":"family","name":"gap-cap-c0","params":{"b":2}}',
    ],
    ids=["int-rational", "float-index", "bool-index", "int-param"],
)
def test_malformed_spec_values_are_one_line_errors(capsys, spec):
    assert main(["classify", spec, "linf"]) == 1
    assert _one_line_error(capsys)


def test_gap_cap_c0_high_exponent_exits_undecided(tmp_path):
    spec = '{"kind":"family","name":"gap-cap-c0","params":{"b":"1000"}}'
    code, raw = run_json(tmp_path, ["classify", spec, "lp:1000"])
    assert code == 2
    assert json.loads(raw)["result"]["verdict"] == "undecided"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "seqchain", "chain"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["chain"]) == 10


def _nested_restrict(depth):
    """A leaf spec under depth - 1 `restrict` nodes, built as text."""
    head = '{"kind":"restrict","support":{"kind":"all"},"base":'
    return head * (depth - 1) + PROP28 + "}" * (depth - 1)


def test_spec_just_inside_the_depth_cap_classifies(tmp_path):
    code, raw = run_json(tmp_path, ["classify", _nested_restrict(MAX_SPEC_DEPTH), "lp:1"])
    assert code == 0
    assert json.loads(raw)["result"]["verdict"] == "in"


@pytest.mark.parametrize("depth", [MAX_SPEC_DEPTH + 1, 2000], ids=["past-cap", "2000-deep"])
def test_spec_past_the_depth_cap_is_a_one_line_error(capsys, depth):
    assert main(["classify", _nested_restrict(depth), "linf"]) == 1
    assert _one_line_error(capsys)


def test_too_deeply_nested_support_json_is_a_one_line_error(capsys):
    argv = ["witness", "--inner", "linf", "--outer", "hd", "--support", "[" * 5000]
    assert main(argv) == 1
    assert _one_line_error(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["--prec", "2000", "classify", PROP28, "lp:1"],
        ["classify", '{"kind":"family","name":"gap-lp-cap","params":{"a":"2"}}', "cap-lp:2"],
    ],
    ids=["prop28-prec-2000", "gap-lp-cap-in-cap-lp-2"],
)
def test_report_past_the_int_str_digit_limit_is_a_one_line_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "integer-to-string" in err


GOLDEN_DIR = Path(__file__).parent / "cli_golden"


# Reports recorded byte for byte before the exact kernel skipped work on
# zeros and seeded its roots from floats; every endpoint must stay the same.
@pytest.mark.parametrize(
    "name, argv",
    [
        ("approx-hd", ["approx", "--target", PROP28, "--outer", "hd", "--avoid", "c0",
                       "--epsilon", "1/64"]),
        ("approx-cap-lp-0", ["approx", "--target",
                             '{"kind":"finite","entries":[[0,"1/2","1/3"],[3,"-2/5","0"]]}',
                             "--outer", "cap-lp:0", "--avoid", "ainf", "--epsilon", "1/2"]),
        # exponents 1 + 1/n: each head term is powered through a root of order 2n
        ("classify-cap-lp-1", ["classify", PROP28, "cap-lp:1"]),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_golden_reports_are_byte_identical(tmp_path, name, argv):
    code, raw = run_json(tmp_path, argv)
    assert code == 0
    assert raw == (GOLDEN_DIR / f"{name}.json").read_bytes()
