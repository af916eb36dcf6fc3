import importlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from seqchain.cli import main
from seqchain.diagnose import check_certificate, classify, verdict_to_json
from seqchain.serialize import MAX_SPEC_DEPTH, sequence_from_spec
from seqchain.spaces import parse_space

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


def test_text_format_prints_one_line_per_verdict_and_family(tmp_path):
    code, raw = run_json(tmp_path, ["--format", "text", "classify", NAT, "linf"], "classify.txt")
    assert (code, raw) == (0, b"linf: out\n")
    grid = ["--outer-range", "1:1", "--inner-range", "1:1"]
    code, raw = run_json(tmp_path, ["--format", "text", "decompose", ZERO, "ainf", *grid], "decompose.txt")
    assert (code, raw) == (0, b"FMk:1/1:1: consistent up to 4096\n")


_CHAIN = [
    "ainf", "cap-lp:0/1", "lp:1/1", "cap-lp:1/1", "lp:2/1", "cap-lp:2/1", "c0", "linf", "hd", "cn0",
]
_CHAIN_TEXT = "chain: " + " < ".join(_CHAIN) + "\n"


# the text lines and exit status of every other command, byte for byte
@pytest.mark.parametrize(
    "argv, text",
    [
        (["chain"], _CHAIN_TEXT),
        (["chain", "--verify"], _CHAIN_TEXT + "".join(
            f"ok  {a} < {b}\n" for a, b in zip(_CHAIN, _CHAIN[1:])) + "verified: 9/9\n"),
        (["witness", "--inner", "lp:1", "--outer", "c0"], "witness for lp:1/1 < c0: verified\n"),
        (["approx", "--target", ZERO, "--outer", "c0", "--avoid", "lp:1", "--epsilon", "1/64"],
         "approximated within 1/256 of the target in c0, certified outside lp:1/1\n"),
        (["basis", "--inner", "lp:1", "--outer", "c0", "--count", "2"],
         "basis of 2 for lp:1/1 < c0: verified\n"),
        (["recover", "--f", ZERO, "--inner", "lp:1", "--outer", "c0", "--j", "1"],
         "c_1 in [0, 0] + i[0, 0] (exact)\n"),
    ],
    ids=["chain", "chain-verify", "witness", "approx", "basis", "recover"],
)
def test_text_format_of_each_command(tmp_path, argv, text):
    assert run_json(tmp_path, ["--format", "text", *argv], "out.txt") == (0, text.encode())


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


@pytest.mark.parametrize(
    "argv",
    [["classify", "@{path}", "hd"], ["witness", "--inner", "lp:1", "--outer", "c0", "--support", "@{path}"]],
    ids=["sequence", "support"],
)
def test_a_spec_file_that_is_not_utf8_is_a_one_line_error(tmp_path, capsys, argv):
    spec_file = tmp_path / "bad.json"
    spec_file.write_bytes(b"\xff\xfe")
    assert main([arg.format(path=spec_file) for arg in argv]) == 1
    assert _one_line_error(capsys)


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


# a malformed argument exits 1 with argparse's message on one line, not 2
# (the undecided code) with a usage block
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--budget", "x", "chain"], "argument --budget: invalid int value: 'x'"),
        (["classify"], "the following arguments are required: seq, space"),
        (["basis", "--inner", "lp:1", "--outer", "c0", "--count", "two"], "argument --count"),
        (["decompose", NAT, "ainf", "--inner-range", "-2:1"], "argument --inner-range"),
        ([], "the following arguments are required: command"),
        (["nosuch"], "invalid choice"),
        # recovery reads element j alone, so recover builds no other and has no --count
        (["recover", "--f", ZERO, "--inner", "lp:1", "--outer", "c0", "--j", "1", "--count", "3"],
         "unrecognized arguments: --count 3"),
    ],
    ids=["budget-letter", "classify-bare", "count-word", "range-dash", "no-command", "unknown-command",
         "recover-count"],
)
def test_malformed_arguments_are_one_line_errors(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv", [["--help"], ["recover", "--help"]], ids=["top", "recover"])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: seqchain")


def test_nonpositive_epsilon_is_a_one_line_error(capsys):
    argv = ["--epsilon", "0", "approx", "--target", ZERO, "--outer", "c0", "--avoid", "lp:1"]
    assert main(argv) == 1
    assert _one_line_error(capsys)


def test_recover_index_zero_is_a_one_line_error(capsys):
    argv = ["recover", "--f", ZERO, "--inner", "lp:1", "--outer", "c0", "--j", "0"]
    assert main(argv) == 1
    assert _one_line_error(capsys)


@pytest.mark.parametrize("count", ["0", "-2"])
def test_basis_count_below_one_is_a_one_line_error(capsys, count):
    argv = ["basis", "--inner", "lp:1", "--outer", "cap-lp:1", "--count", count]
    assert main(argv) == 1
    assert _one_line_error(capsys)


@pytest.mark.parametrize(
    "target, outer, message",
    [
        (NAT, "lp:1", "no l^1 tail bound available"),
        (NAT, "lp:1/2", "no l^1/2 tail bound available"),
        (NAT, "cap-lp:0", "no l^1 tail bound available"),
        (NAT, "c0", "no sup tail bound available"),
        ('{"kind":"family","name":"nat-power"}', "hd", "no disc tail bound available"),
    ],
    ids=["lp-1", "lp-1/2", "cap-lp-0", "c0", "hd"],
)
def test_a_missing_tail_oracle_is_a_one_line_error(capsys, target, outer, message):
    assert main(["approx", "--target", target, "--outer", outer, "--avoid", "ainf"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# the bound of hd, cap-lp and cn0 adds 2**-K at every scale past a cut that
# --budget or --prec sets: when that is already at least the radius, the
# scale search fails at once and names it, instead of trying 97 halvings
@pytest.mark.parametrize(
    "argv, remainder",
    [
        (["--budget", "16", "--epsilon", "1/1000000", "approx", "--outer", "hd"], "2**-16"),
        (["--budget", "16", "--epsilon", "1/1000000", "approx", "--outer", "cap-lp:0"], "2**-16"),
        (["--prec", "16", "--epsilon", "1/1000000000000", "approx", "--outer", "cn0"], "2**-20"),
    ],
    ids=["hd", "cap-lp-0", "cn0"],
)
def test_a_remainder_above_the_radius_is_a_one_line_error(capsys, argv, remainder):
    target = '{"kind":"finite","entries":[[0,"1/3","0/1"]]}'
    assert main(argv + ["--avoid", "ainf", "--target", target]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no dyadic scale can reach radius") and err.count("\n") == 1
    flag = "--budget 16" if "--budget" in argv else "--prec 16"
    assert f"adds {remainder} " in err and f"that {flag} sets" in err


GAP_CAP_LP_1_2 = '{"kind":"family","name":"gap-cap-lp","params":{"a":"1/1","b":"2/1"}}'


# a truncation's distance is read from the tail oracles, so a budget whose
# every cutoff leaves a bound of at least epsilon/2 fails at once and names
# the last cutoff and its bound (the first ran 45 s through metric walks)
@pytest.mark.parametrize(
    "target, outer, inner, named",
    [
        (GAP_CAP_LP_1_2, "lp:2", "lp:1", "1/4 in lp:2/1 by --budget 4096: the bound at cutoff 4096 is 0.433"),
        (PROP28, "cap-lp:0", "ainf", "1/4 in cap-lp:0/1 by --budget 4096: the bound at cutoff 4096 is 0.307"),
    ],
    ids=["gap-cap-lp-lp-2", "prop28-cap-lp-0"],
)
def test_a_truncation_out_of_reach_is_a_fast_one_line_error(capsys, target, outer, inner, named):
    argv = ["--epsilon", "1/2", "approx", "--target", target, "--outer", outer, "--avoid", inner]
    start = time.process_time()
    assert main(argv) == 1
    assert time.process_time() - start < 1
    assert capsys.readouterr().err == f"error: no rational truncation within {named}\n"


def test_prop28_reaches_cap_lp_0_with_a_larger_budget(tmp_path):
    """prop28 has 12 support points below 4096; at --budget 65536 the tail of
    every cap-lp:0 row is read past 65536."""
    argv = ["--budget", "65536", "--epsilon", "1/2", "approx", "--target", PROP28,
            "--outer", "cap-lp:0", "--avoid", "ainf"]
    code, raw = run_json(tmp_path, argv)
    assert code == 0
    assert Fraction(json.loads(raw)["distance_upper"]) < Fraction(1, 2)


# a misspelled or missing key is an error, not the zero sequence
@pytest.mark.parametrize(
    "spec, key",
    [
        ('{"kind":"combine","coeffs":["1"],"parts":[{"kind":"family","name":"nat"}]}', "'coeffs'"),
        ('{"kind":"finite","entires":[[3,"1/1","0/1"]]}', "'entires'"),
        ('{"kind":"finite"}', "'entries'"),
        ('{"kind":"combine"}', "'terms'"),
    ],
)
def test_a_spec_key_typo_is_a_one_line_error(capsys, spec, key):
    assert main(["classify", spec, "linf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err


# an empty object where an array is due read as an empty array, and an
# empty array as absent params: each exited 0 as another sequence
@pytest.mark.parametrize(
    "spec, named",
    [
        ('{"kind":"finite","entries":{}}', "(finite) entries must be an array: {}"),
        ('{"kind":"combine","terms":{}}', "(combine) terms must be an array: {}"),
        ('{"kind":"family","name":"nat","params":[]}', "family nat params must be an object: []"),
    ],
    ids=["finite-object-entries", "combine-object-terms", "family-array-params"],
)
def test_a_mistyped_empty_container_is_a_one_line_error(capsys, spec, named):
    assert main(["classify", spec, "linf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


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
        ["--outer-range", "2:1"],
        ["--inner-range", "3:1"],
    ],
    ids=["inner-letters", "outer-dash", "outer-empty", "outer-reversed", "inner-reversed"],
)
def test_bad_decompose_range_is_a_one_line_error(capsys, flags):
    assert main(["decompose", PROP28, "ainf"] + flags) == 1
    assert _one_line_error(capsys)


# the first out-of-range grid point names the error, as the grid is walked
@pytest.mark.parametrize(
    "args, message",
    [
        (["c0", "--outer-range", "0:0", "--inner-range", "1:1"], "bad family ref Fnk:1:0: need k >= 1"),
        (["hd", "--outer-range", "0:0", "--inner-range", "1:1"], "bad family ref Fkj:1:0: need k, j >= 1"),
        (["cap-lp:1", "--outer-range", "0:0"], "cap-lp exponent index 0 must be >= 1"),
        (["linf", "--inner-range=-1:-1"], "bad family ref FM:-1/1: bound must be >= 0"),
        (["ainf", "--outer-range=-1:-1", "--inner-range", "1:1"],
         "bad family ref FMk:1/1:-1: parameters out of range"),
        (["lp:1", "--inner-range=-1:-1"], "bad family ref psum:1/1:-1/1: bound must be >= 0"),
        (["cap-lp:1", "--inner-range=-1:-1"], "bad family ref psum:2/1:-1/1: bound must be >= 0"),
        (["cn0"], "no decomposition for cn0"),
    ],
    ids=[
        "c0-k-0", "hd-j-0", "cap-lp-n-0", "linf-bound-negative", "ainf-k-negative",
        "lp-bound-negative", "cap-lp-bound-negative", "cn0",
    ],
)
def test_out_of_range_decompose_grid_is_a_one_line_error(capsys, args, message):
    assert main(["decompose", NAT] + args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "spec",
    [
        '{"kind":"finite","entries":[[0,1,0]]}',
        '{"kind":"finite","entries":[[1.5,"1","0"]]}',
        '{"kind":"finite","entries":[[true,"1","0"]]}',
        '{"kind":"family","name":"gap-cap-c0","params":{"b":2}}',
        '{"kind":"spread","base":{"kind":"family","name":"prop28"},"support":{"kind":"dyadic-row","j":1.5}}',
        '{"kind":"restrict","base":{"kind":"family","name":"nat"},"support":{"kind":"arith","start":true,"step":3}}',
        '{"kind":"family","name":"rem29","params":{"support":{"kind":"arith","start":1,"step":"3"}}}',
        '{"kind":"restrict","base":{"kind":"family","name":"nat"},"support":{"kind":"explicit-finite","elems":[1.9,"3"]}}',
        '{"kind":"restrict","base":{"kind":"family","name":"nat"},"support":{"kind":"explicit-finite","elems":{}}}',
        # a later entry once replaced an earlier one of the same index
        '{"kind":"finite","entries":[[3,"1","0"],[3,"-1","0"]]}',
    ],
    ids=[
        "int-rational", "float-index", "bool-index", "int-param", "spread-float-row",
        "restrict-bool-start", "rem29-string-step", "restrict-float-elems", "restrict-dict-elems",
        "finite-repeated-index",
    ],
)
def test_malformed_spec_values_are_one_line_errors(capsys, spec):
    assert main(["classify", spec, "linf"]) == 1
    assert _one_line_error(capsys)


@pytest.mark.parametrize(
    "argv, literal",
    [
        (["classify", NAT, "lp:1e-300000000"], "1e-300000000"),
        (["classify", '{"kind":"finite","entries":[[0,"1e-400000000","0/1"]]}', "linf"],
         "1e-400000000"),
        (["--epsilon", "1e-999999999", "approx", "--target", ZERO, "--outer", "c0",
          "--avoid", "lp:1"], "1e-999999999"),
        (["classify", NAT, "lp:2E3"], "2E3"),
    ],
    ids=["space-param", "finite-entry", "epsilon", "capital-E"],
)
def test_exponent_literals_are_prompt_one_line_errors(capsys, argv, literal):
    # Fraction would expand 10**-300000000 exactly; the parser refuses first
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(literal) in err


def test_plain_decimal_space_parameter_still_parses(tmp_path):
    code, raw = run_json(tmp_path, ["classify", NAT, "lp:0.5"])
    assert code == 0
    assert json.loads(raw)["space"] == "lp:1/2"


def test_gap_cap_c0_high_exponent_exits_undecided(tmp_path):
    spec = '{"kind":"family","name":"gap-cap-c0","params":{"b":"1000"}}'
    code, raw = run_json(tmp_path, ["classify", spec, "lp:1000000"])
    assert code == 2
    assert json.loads(raw)["result"]["verdict"] == "undecided"


def test_a_multiple_of_a_cap_lp_non_member_exits_undecided(tmp_path):
    # 2 * gap-cap-lp(1, 21/20) lies in l^q only for q > 41/40, so not in cap-lp:1
    spec = (
        '{"kind":"combine","terms":[["2/1","0/1",{"kind":"family","name":"gap-cap-lp",'
        '"params":{"a":"1/1","b":"21/20"}}]]}'
    )
    code, raw = run_json(tmp_path, ["--budget", "64", "classify", spec, "cap-lp:1"])
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


ROOT = Path(__file__).resolve().parents[1]


def _project_table():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_console_script_resolves_to_a_working_entry_point(monkeypatch, capsys):
    module, _, attr = _project_table()["scripts"]["seqchain"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert callable(entry)
    monkeypatch.setattr(sys, "argv", ["seqchain", "chain"])
    with pytest.raises(SystemExit) as done:
        entry()
    assert done.value.code == 0
    assert len(json.loads(capsys.readouterr().out)["chain"]) == 10


def test_requires_python_is_the_floor_of_the_ci_matrix():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", workflow).group(1)
    versions = [tuple(map(int, v.strip(" \"'").split("."))) for v in matrix.split(",")]
    assert _project_table()["requires-python"] == ">={}.{}".format(*min(versions))


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


# prop28's lp:1 tail on the 2**-16001 grid has a denominator of about
# 16,000 bits, past the 4,300 digits Python renders
@pytest.mark.parametrize("argv", [["--prec", "16000", "classify", PROP28, "lp:1"]], ids=["prop28-prec-16000"])
def test_report_past_the_int_str_digit_limit_is_a_one_line_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "integer-to-string" in err


_NAT_ON_POWERS_OF_TWO_TWICE = (
    '{"kind":"spread","base":{"kind":"spread","base":' + NAT + ',"support":{"kind":"powers-of-two"}},'
    '"support":{"kind":"powers-of-two"}}'
)


def test_a_threshold_table_index_past_the_digit_limit_is_a_one_line_error(capsys):
    # nat's linf rows sit at m = 1, 2, 4, ..., 128, and twice on the powers
    # of two s(m) = 2**2**m: s(16) has 19,729 digits, and s(32) would take
    # 512 MiB to build, so the build stops at s(16) and names its size
    start = time.process_time()
    assert main(["classify", _NAT_ON_POWERS_OF_TWO_TWICE, "linf"]) == 1
    assert time.process_time() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "s(16) is a 65537-bit integer" in err and "integer-to-string" in err
    # the other spaces decide it
    for space in ("ainf", "c0", "hd", "lp:1"):
        assert main(["classify", _NAT_ON_POWERS_OF_TWO_TWICE, space]) == 0, space


_GAP_CAP_LP_1_2 = '{"kind":"family","name":"gap-cap-lp","params":{"a":"1/1","b":"2/1"}}'

# classify inputs whose in-certificates once summed a head of exact
# rationals, with odd denominators that multiplied past the digit limit
# (the last three by 31,351, 47,007 and 75,322 bits); each row now records
# its tail oracle's bound alone
_ONCE_PAST_THE_DIGIT_LIMIT = {
    "prop28-prec-2000": ["--prec", "2000", "classify", PROP28, "lp:1"],
    "gap-lp-cap-in-cap-lp-2": ["classify", '{"kind":"family","name":"gap-lp-cap","params":{"a":"2"}}', "cap-lp:2"],
    "gap-cap-lp-1-2-in-lp-2": ["classify", _GAP_CAP_LP_1_2, "lp:2"],
    "gap-cap-lp-1-2-in-cap-lp-2": ["classify", _GAP_CAP_LP_1_2, "cap-lp:2"],
    "gap-lp-cap-1-100-in-lp-2": [
        "classify", '{"kind":"family","name":"gap-lp-cap","params":{"a":"1/100"}}', "lp:2",
    ],
}


def _numbers(x):
    """Every string inside a JSON value."""
    if isinstance(x, str):
        yield x
    elif isinstance(x, list):
        for y in x:
            yield from _numbers(y)


@pytest.mark.parametrize("name", list(_ONCE_PAST_THE_DIGIT_LIMIT))
def test_reports_once_past_the_digit_limit_certify_in(tmp_path, name):
    argv = _ONCE_PAST_THE_DIGIT_LIMIT[name]
    code, raw = run_json(tmp_path, argv)
    assert code == 0
    report = json.loads(raw)
    assert report["result"]["verdict"] == "in"
    assert max(len(x) for x in _numbers(report["result"]["certificate"]["data"])) < 4300
    # the reported certificate re-checks on a second parse of its spec
    spec, space, config = argv[-2], parse_space(argv[-1]), report["config"]
    verdict = classify(sequence_from_spec(spec), space, config["budget"], config["prec"])
    assert verdict_to_json(verdict) == report["result"]
    assert check_certificate(sequence_from_spec(spec), verdict, 3, config["prec"])


GOLDEN_DIR = Path(__file__).parent / "cli_golden"

# the three rows of ``basis --inner lp:1 --outer cap-lp:1 --count 3``, written
# out so that ``recover`` matches the parts of f to basis elements by spec key,
# not by identity
_ROWS = [
    '{"kind":"spread","base":{"kind":"family","name":"gap-lp-cap","params":{"a":"1/1"}},'
    f'"support":{{"kind":"dyadic-row","j":{j}}}}}'
    for j in (1, 2, 3)
]
ROW_COMBINATION = (
    f'{{"kind":"combine","terms":[["2","0",{_ROWS[0]}],["-1/3","1/5",{_ROWS[1]}],'
    f'["5/7","0",{_ROWS[2]}]]}}'
)

HD_COMBINATION = (
    '{"kind":"combine","terms":[["1/2","1/3",{"kind":"restrict","base":{"kind":"family",'
    '"name":"rem29","params":{"support":{"kind":"arith","start":1,"step":3}}},'
    '"support":{"kind":"arith","start":0,"step":2}}],'
    '["-1","0",{"kind":"family","name":"gap-cap-c0","params":{"b":"1/1"}}]]}'
)

GAP_CAP_LP_0_1 = '{"kind":"family","name":"gap-cap-lp","params":{"a":"0/1","b":"1/1"}}'
COMPLEX_GAP_LP_CAP = (
    '{"kind":"combine","terms":[["1/2","1/3",'
    '{"kind":"family","name":"gap-lp-cap","params":{"a":"1/2"}}]]}'
)


# Reports recorded byte for byte before the exact kernel skipped work on
# zeros and seeded its roots from floats (approx-cn0: before the head sums
# became integers; the three reports with checkpoints: before distance
# questions stopped at their first decisive rung); every endpoint must stay
# the same.  The four classify reports and the basis report were recorded
# again when in-certificates came to record tail bounds alone, and
# approx-cap-lp-0 when x + c*w - x came to be read from w's own head with
# its rows scaled by |c|**p (a distance upper 7 * 2**-72 lower, inside the
# parent's; ``test_scaled_metrics`` checks both enclosures).  The seven approx
# reports were recorded again when ``distance_upper`` came to be the
# truncation's oracle bound plus the bound that certified the scale, with no
# walk: only that line changed, by a factor of 1.00 to 1.05, and
# ``test_metric_rungs`` and ``test_truncation_bounds`` hold it against walks
# at 4 * prec.
@pytest.mark.parametrize(
    "name, argv",
    [
        ("approx-hd", ["approx", "--target", PROP28, "--outer", "hd", "--avoid", "c0",
                       "--epsilon", "1/64"]),
        ("approx-cap-lp-0", ["approx", "--target",
                             '{"kind":"finite","entries":[[0,"1/2","1/3"],[3,"-2/5","0"]]}',
                             "--outer", "cap-lp:0", "--avoid", "ainf", "--epsilon", "1/2"]),
        # an lp-schedule: the threshold t = 0 and eight rows at exponents 1 + 1/n
        ("classify-cap-lp-1", ["classify", PROP28, "cap-lp:1"]),
        ("approx-cn0", ["approx", "--target",
                        '{"kind":"finite","entries":[[0,"1/3","-2/7"],[2,"5/2","0"],[9,"0","-1/9"]]}',
                        "--outer", "cn0", "--avoid", "hd", "--epsilon", "1/1024"]),
        # prop28's l^1 tail bounds at cutoffs 64 and 256 are above epsilon/2,
        # so x is built on the head to 1024; at --budget 40 and 100 the cn0
        # scale is certified on ladders that stop at rungs 32 and 64
        ("approx-lp-1-checkpoint-budget", ["approx", "--target", PROP28, "--outer", "lp:1",
                                           "--avoid", "ainf", "--epsilon", "1/4"]),
        ("approx-cn0-budget-40", ["--budget", "40", "approx", "--target", PROP28, "--outer", "cn0",
                                  "--avoid", "c0", "--epsilon", "1/1024"]),
        ("approx-cn0-budget-100", ["--budget", "100", "approx", "--target", PROP28, "--outer", "cn0",
                                   "--avoid", "c0", "--epsilon", "1/1024"]),
        # every modulus of the distance's head is a point: one disc sum per radius
        ("approx-hd-finite", ["approx", "--target",
                              '{"kind":"finite","entries":[[0,"1/2","1/3"],[3,"-2/5","0"]]}',
                              "--outer", "hd", "--avoid", "c0", "--epsilon", "1/64"]),
        # the construct workload's two commands: a basis on disjoint dyadic
        # rows, and a coefficient recovered from a combination of its rows
        ("basis-lp-1-cap-lp-1", ["basis", "--inner", "lp:1", "--outer", "cap-lp:1",
                                 "--count", "3"]),
        ("recover-lp-1-cap-lp-1", ["recover", "--f", ROW_COMBINATION, "--inner", "lp:1",
                                   "--outer", "cap-lp:1", "--j", "2"]),
        # a disc-schedule certificate whose disc tails are a complex
        # coefficient's weight, a restriction, rem29's selection tail and the
        # unit tail of gap-cap-c0, added as integer pairs
        ("classify-hd-combine", ["classify", HD_COMBINATION, "hd"]),
        # lp-schedules recorded at --prec 256: of a family, whose tails past
        # N = -1 are closed forms
        ("classify-gap-cap-lp-cap-lp-1-prec-256",
         ["--prec", "256", "classify", GAP_CAP_LP_0_1, "cap-lp:1"]),
        # and of a complex multiple, whose tails are weighted by its modulus
        ("classify-complex-gap-lp-cap-cap-lp-2-prec-256",
         ["--prec", "256", "classify", COMPLEX_GAP_LP_CAP, "cap-lp:2"]),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_golden_reports_are_byte_identical(tmp_path, name, argv):
    code, raw = run_json(tmp_path, argv)
    assert code == 0
    assert raw == (GOLDEN_DIR / f"{name}.json").read_bytes()
