"""CLI: grammar round-trips, golden outputs, exit codes, job determinism,
cold-start imports and large-invariant decisions in a fresh process."""

import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from sfiber import blowdown, decide
from sfiber.blowdown import RouteVerdict
from sfiber.cli import SeifertParseError, main, parse_gamma_list, parse_seifert, seifert_to_text
from sfiber.seifert import SeifertData
from sfiber.sweeps import fibers_for_gammas

POINCARE_EXPR = "{-1; 0; (2,1),(3,1),(5,1)}"

GOLDEN_DECIDE = """\
{
  "answer": true,
  "case": "Main-a",
  "evidence": {
    "certificate": null,
    "chi": 2,
    "e": "-1/30",
    "e0": -2
  }
}
"""

GOLDEN_REALIZABLE = """\
{
  "certificate": null,
  "realizable": false
}
"""

GOLDEN_E8_DOT = (
    "graph plumbing {\n"
    + "".join(f'  v{i} [label="x=-2,g=0"];\n' for i in range(8))
    + '  v0 -- v1 [label="1"];\n'
    + '  v0 -- v2 [label="1"];\n'
    + '  v0 -- v4 [label="1"];\n'
    + '  v2 -- v3 [label="1"];\n'
    + '  v4 -- v5 [label="1"];\n'
    + '  v5 -- v6 [label="1"];\n'
    + '  v6 -- v7 [label="1"];\n'
    + "}\n"
)


def run_cli(args, stdin=None, capsys=None):
    import sys
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(args)
        finally:
            sys.stdin = old
    else:
        code = main(args)
    out = capsys.readouterr().out if capsys else None
    return code, out


def test_parse_examples():
    assert parse_seifert(POINCARE_EXPR) == SeifertData(-1, 0, ((2, 1), (3, 1), (5, 1)))
    assert parse_seifert("{0; 1;}") == SeifertData(0, 1, ())
    assert parse_seifert(" { -1 ;0 ; ( 2 , 1 ) , (3,1) } ") == SeifertData(
        -1, 0, ((2, 1), (3, 1)))


def test_parse_json_form():
    assert parse_seifert('{"b": -1, "g": 0, "fibers": [[2, 1], [3, 1], [5, 1]]}') == \
        SeifertData(-1, 0, ((2, 1), (3, 1), (5, 1)))
    assert parse_seifert('{"b": 0, "g": 1}') == SeifertData(0, 1, ())
    with pytest.raises(SeifertParseError):
        parse_seifert('{"b": -1, "fibers": []}')
    with pytest.raises(SeifertParseError):
        parse_seifert('{"b": -1, "g": 0, "fibers": [[2]]}')


def test_parse_error_positions():
    with pytest.raises(SeifertParseError) as err:
        parse_seifert("{-1; 0")
    assert err.value.position == 6
    with pytest.raises(SeifertParseError):
        parse_seifert("{-1; 0; (2,)}")
    with pytest.raises(SeifertParseError):
        parse_seifert("{1; 2;} extra")


def test_parse_rejects_invalid_pairs():
    from sfiber.seifert import InvalidSeifertError
    with pytest.raises(InvalidSeifertError):
        parse_seifert("{-1; 0; (2,2)}")


def test_print_parse_roundtrip_randomized():
    rng = random.Random(3141)
    for _ in range(10_000):
        fibers = []
        while len(fibers) < rng.randint(0, 4):
            alpha = rng.randint(1, 30)
            beta = rng.randint(-40, 40)
            if gcd(alpha, beta) == 1:
                fibers.append((alpha, beta))
        data = SeifertData(rng.randint(-20, 20), rng.randint(-5, 5), tuple(fibers))
        assert parse_seifert(seifert_to_text(data)) == data


def test_parse_gamma_list():
    from fractions import Fraction
    assert parse_gamma_list("1/2, 1/3,1/5") == (
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    with pytest.raises(ValueError):
        parse_gamma_list("1/2,,1/3")


def test_golden_decide_contact(capsys):
    code, out = run_cli(["decide", "contact", POINCARE_EXPR], capsys=capsys)
    assert code == 0 and out == GOLDEN_DECIDE
    code, again = run_cli(["decide", "contact", POINCARE_EXPR], capsys=capsys)
    assert code == 0 and again == out


def test_golden_realizable(capsys):
    code, out = run_cli(["realizable", "1/2,1/3,1/5"], capsys=capsys)
    assert code == 0 and out == GOLDEN_REALIZABLE


def test_golden_plumbing_dot(tmp_path, capsys):
    target = tmp_path / "e8.dot"
    code, out = run_cli(["plumbing", POINCARE_EXPR, "--dot", str(target)], capsys=capsys)
    assert code == 0 and out == ""
    assert target.read_text() == GOLDEN_E8_DOT
    code, out = run_cli(["plumbing", POINCARE_EXPR], capsys=capsys)
    assert out == GOLDEN_E8_DOT


def test_plumbing_double_cover(capsys):
    code, _ = run_cli(["plumbing", "{1; -1;}"], capsys=capsys)
    assert code == 3
    code, out = run_cli(["plumbing", "{1; -1;}", "--double-cover"], capsys=capsys)
    assert code == 0 and 'v0 [label="x=-2,g=0"]' in out


def test_decide_other_kinds(capsys):
    import json
    code, out = run_cli(["decide", "foliation", "{0; 1;}"], capsys=capsys)
    assert code == 0 and json.loads(out)["case"] == "Fol-a"
    code, out = run_cli(["decide", "invariant-contact", POINCARE_EXPR], capsys=capsys)
    payload = json.loads(out)
    assert code == 0 and payload["answer"] and payload["case"] == "e<0"


def test_blowdown_trace_output(capsys):
    import json
    code, out = run_cli(["blowdown-trace", "3/5,1/3,1/9"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["kind"] == "realizable"
    assert payload["verdict"]["case"] == "two-q-short"
    assert payload["verdict"]["certificate"] == {"m": 8, "a": 5, "assignment": [0, 1, 2]}
    assert payload["trace"][-1] == {"stage": 3, "x": 6, "p": 5, "q": 3, "genus": 4}
    # quick-certificate inputs have no iteration to trace
    code, out = run_cli(["blowdown-trace", "1/3,1/3,1/4"], capsys=capsys)
    assert json.loads(out)["trace"] == []


def test_stdin_dash(capsys):
    code, out = run_cli(["decide", "contact", "-"], stdin=POINCARE_EXPR + "\n", capsys=capsys)
    assert code == 0 and out == GOLDEN_DECIDE


def test_exit_codes(capsys):
    assert run_cli(["decide", "contact", "{-1; 0"], capsys=capsys)[0] == 2
    assert run_cli(["decide", "contact", "{-1; 0; (2,2)}"], capsys=capsys)[0] == 3
    assert run_cli(["realizable", "1/2,1/3,5/4"], capsys=capsys)[0] == 3
    assert run_cli(["invariants", POINCARE_EXPR], capsys=capsys)[0] == 0


def test_exit_code_consistency_failure(monkeypatch, capsys):
    def lying_route(_):
        return RouteVerdict("realizable", case_tag="even-k", certificate=None)

    decide._oracle_with_shadow.cache_clear()
    monkeypatch.setattr(blowdown, "decide_route", lying_route)
    code, _ = run_cli(["decide", "contact", "{-2; 0; (29,28),(29,1),(31,1)}"], capsys=capsys)
    assert code == 4
    decide._oracle_with_shadow.cache_clear()


def test_sweep_deterministic_across_jobs(capsys):
    code1, out1 = run_cli(["sweep", "--r", "3", "--max-denominator", "6", "--jobs", "1"],
                          capsys=capsys)
    code2, out2 = run_cli(["sweep", "--r", "3", "--max-denominator", "6", "--jobs", "2"],
                          capsys=capsys)
    assert code1 == code2 == 0
    import json
    payload1, payload2 = json.loads(out1), json.loads(out2)
    assert payload1.pop("jobs") == 1 and payload2.pop("jobs") == 2
    assert payload1 == payload2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_rejects_nonpositive_jobs(jobs, capsys):
    code, out = run_cli(["sweep", "--r", "3", "--max-denominator", "6", "--jobs", jobs],
                        capsys=capsys)
    assert code == 3 and out == ""


def test_deeply_nested_json_is_a_parse_error(capsys):
    """JSON nested past the decoder's recursion limit is a syntax error,
    not a traceback."""
    depth = 100_000
    text = '{"b": ' + "[" * depth + "]" * depth + ', "g": 0}'
    code = main(["decide", "contact", text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:")


def test_invariants_roundtrip_fields(capsys):
    import json
    code, out = run_cli(["invariants", POINCARE_EXPR], capsys=capsys)
    payload = json.loads(out)
    assert payload["e"] == "-1/30" and payload["e0"] == -2
    assert payload["reversed"]["e"] == "1/30"
    assert payload["reversed"]["normalized"] == "{-2; 0; (2,1),(3,2),(5,4)}"
    assert parse_seifert(payload["normalized"]) == SeifertData(-1, 0, ((2, 1), (3, 1), (5, 1)))


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh_python(args, timeout):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_cli_import_leaves_out_sweeps():
    """Only `sfiber sweep` needs the sweep suites and their process pool."""
    probe = ("import sys, sfiber.cli; "
             "print(sorted({'sfiber.sweeps', 'concurrent.futures.process'} & set(sys.modules)))")
    result = _fresh_python(["-c", probe], timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [10**5, 10**6])
@pytest.mark.parametrize("family", [
    lambda n: (1 - Fraction(1, n), Fraction(1, n + 1), Fraction(1, n + 2)),
    lambda n: (Fraction(1, 2), Fraction(1, 2) - Fraction(1, n), Fraction(2, n)),
], ids=["one-minus-inverse", "half-split"])
def test_decide_contact_large_unrealizable_families(family, n):
    """Two unrealizable e0 = -1 families: a decision that grows with
    1/gamma_3 or with the expansion length fails here by the timeout
    instead of hanging the suite."""
    text = seifert_to_text(SeifertData(-2, 0, fibers_for_gammas(family(n))))
    result = _fresh_python(["-m", "sfiber.cli", "decide", "contact", text], timeout=60)
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["answer"] is False and payload["evidence"]["e0"] == -1


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("decision_table.py", ["--max-alpha", "3", "--max-r", "1", "--max-b", "1"],
     "seifert,e,e0,contact,contact_case,foliation,foliation_case,invariant_contact"),
    ("route_case_census.py", ["--r", "3", "--max-denominator", "5"],
     "165 gamma multisets (r=3, denominators <= 5)"),
])
def test_scripts_run(script, args, header):
    """The scripts import from the library: each runs to exit 0 and prints
    its header line."""
    result = _fresh_python([str(SCRIPTS / script), *args], timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == header


def test_decision_table_quiet_on_closed_pipe():
    """A reader that stops after one line (`| head -1`) ends the table with
    exit 0 and nothing on stderr; the table (about 200 KB) outgrows the
    pipe buffer, so the script does hit the closed pipe."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    args = ["--max-alpha", "7", "--max-r", "2", "--max-b", "3"]
    with subprocess.Popen([sys.executable, str(SCRIPTS / "decision_table.py"), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert first.startswith("seifert,")
    assert code == 0 and err == "", err
