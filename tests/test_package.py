"""Properties of the shipped package as a whole."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sfiber"


def test_no_assert_statements():
    """`python -O` strips assert, so internal invariants are explicit checks
    in the library and properties in the tests."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


ROOT = PACKAGE.parents[1]

TRACED_CALLS = """
import sys
from fractions import Fraction as F
sys.path.insert(0, {perfbench!r})
from spans import Tracer
tracer = Tracer()
tracer.install()
from sfiber import blowdown, cli, decide, plumbing, seifert
data = cli.parse_seifert("{{-1; 0; (2,1),(3,1),(5,1)}}")
decide.admits_transverse_contact(data)
decide.admits_transverse_foliation(data)
decide.admits_invariant_transverse_contact(data)
blowdown.run_trace(blowdown.parse_delta_sequences((F(3, 5), F(1, 3), F(1, 9))))
plumbing.to_dot(plumbing.build_plumbing(seifert.normalize(data)))
if tracer.calls["cf.neg_cf_expand"] == 0 or tracer.calls["decide.admits_transverse_contact"] != 1:
    sys.exit(f"spans not reached: {{dict(tracer.calls)}}")
"""


def test_benchmark_tracer_runs():
    """The benchmark's per-layer tracer wraps every function it names by
    import path; a renamed or dropped name fails here instead of in a traced
    benchmark run.  One fresh process: installed tracing cannot be undone."""
    probe = TRACED_CALLS.format(perfbench=str(ROOT / "perfbench"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
