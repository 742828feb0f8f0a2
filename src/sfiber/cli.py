"""Command-line interface.

Seifert data is written ``{b; g; (a1,b1),(a2,b2),...}`` and gamma vectors
as comma-separated fractions ``1/2,1/3,1/5``.  Reports are JSON with
rationals encoded as exact "num/den" strings.  Exit codes: 0 computed,
2 syntax error, 3 invalid invariants or domain error, 4 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import blowdown, plumbing, realizability
from .decide import (
    ConsistencyError,
    admits_invariant_transverse_contact,
    admits_transverse_contact,
    admits_transverse_foliation,
)
from .seifert import (
    InvalidSeifertError,
    SeifertData,
    e_zero,
    euler_char_base,
    euler_number,
    gamma_vector,
    normalize,
    orientation_double_cover,
    reverse_orientation,
    validate,
)


class SeifertParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_seifert(text: str) -> SeifertData:
    """Parse ``{b; g; (a1,b1),...}`` or the JSON form
    ``{"b": ..., "g": ..., "fibers": [[a, b], ...]}``."""
    stripped = text.lstrip()
    if stripped.startswith('{"'):
        return _parse_seifert_json(text)
    s = text
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def expect(ch: str):
        nonlocal pos
        skip_ws()
        if pos >= len(s) or s[pos] != ch:
            raise SeifertParseError(f"expected '{ch}'", pos)
        pos += 1

    def parse_int() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        if pos < len(s) and s[pos] in "+-":
            pos += 1
        digits = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == digits:
            raise SeifertParseError("expected an integer", start)
        return int(s[start:pos])

    expect("{")
    b = parse_int()
    expect(";")
    g = parse_int()
    expect(";")
    fibers = []
    skip_ws()
    if pos < len(s) and s[pos] == "(":
        while True:
            expect("(")
            alpha = parse_int()
            expect(",")
            beta = parse_int()
            expect(")")
            fibers.append((alpha, beta))
            skip_ws()
            if pos < len(s) and s[pos] == ",":
                pos += 1
            else:
                break
    expect("}")
    skip_ws()
    if pos != len(s):
        raise SeifertParseError("trailing characters", pos)
    data = SeifertData(b, g, tuple(fibers))
    validate(data)
    return data


def _parse_seifert_json(text: str) -> SeifertData:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SeifertParseError(exc.msg, exc.pos)
    except RecursionError:
        raise SeifertParseError("JSON nested too deeply", 0)
    if not isinstance(payload, dict):
        raise SeifertParseError("expected a JSON object", 0)
    try:
        b, g = payload["b"], payload["g"]
        fibers = tuple((int(a), int(x)) for a, x in payload.get("fibers", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise SeifertParseError(f"malformed JSON Seifert data: {exc}", 0)
    if not isinstance(b, int) or not isinstance(g, int):
        raise SeifertParseError("b and g must be integers", 0)
    data = SeifertData(b, g, fibers)
    validate(data)
    return data


def seifert_to_text(data: SeifertData) -> str:
    if not data.fibers:
        return f"{{{data.b}; {data.g};}}"
    pairs = ",".join(f"({a},{b})" for a, b in data.fibers)
    return f"{{{data.b}; {data.g}; {pairs}}}"


def parse_gamma_list(text: str) -> tuple[Fraction, ...]:
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError("empty gamma entry")
        entries.append(Fraction(part))
    return tuple(entries)


def _frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _cert_json(cert):
    if cert is None:
        return None
    return {"m": cert.m, "a": cert.a, "assignment": list(cert.assignment)}


def _decision_json(decision) -> dict:
    evidence = {}
    for key, value in decision.evidence.items():
        if key == "certificate":
            evidence[key] = _cert_json(value)
        elif isinstance(value, Fraction):
            evidence[key] = _frac(value)
        else:
            evidence[key] = value
    return {"answer": decision.answer, "case": decision.fired_case, "evidence": evidence}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_expr(value: str) -> str:
    if value == "-":
        return sys.stdin.read().strip()
    return value


def _cmd_invariants(args) -> int:
    data = normalize(parse_seifert(_read_expr(args.expr)))
    rev = reverse_orientation(data)

    def block(m: SeifertData) -> dict:
        return {
            "normalized": seifert_to_text(m),
            "b": m.b,
            "g": m.g,
            "fibers": [list(f) for f in m.fibers],
            "e": _frac(euler_number(m)),
            "e0": e_zero(m),
            "gamma": [_frac(g) for g in gamma_vector(m)],
            "chi": euler_char_base(m.g),
        }

    _emit({**block(data), "reversed": block(rev)})
    return 0


def _cmd_decide(args) -> int:
    data = parse_seifert(_read_expr(args.expr))
    if args.kind == "contact":
        decision = admits_transverse_contact(data)
    elif args.kind == "foliation":
        decision = admits_transverse_foliation(data)
    else:
        decision = admits_invariant_transverse_contact(data)
    _emit(_decision_json(decision))
    return 0


def _cmd_realizable(args) -> int:
    gammas = parse_gamma_list(_read_expr(args.gammas))
    cert = realizability.is_realizable(gammas)
    _emit({"realizable": cert is not None, "certificate": _cert_json(cert)})
    return 0


def _cmd_plumbing(args) -> int:
    data = normalize(parse_seifert(_read_expr(args.expr)))
    if data.g < 0:
        if not args.double_cover:
            raise InvalidSeifertError(
                "non-orientable base: pass --double-cover to plumb the pullback"
            )
        data = orientation_double_cover(data)
    dot = plumbing.to_dot(plumbing.build_plumbing(data))
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


def _cmd_blowdown_trace(args) -> int:
    gammas = parse_gamma_list(_read_expr(args.gammas))
    verdict = blowdown.decide_route(gammas)
    ordered = tuple(sorted(gammas, reverse=True))
    trace = []
    if ordered[0] >= Fraction(1, 2) and ordered[0] + ordered[1] < 1:
        states = blowdown.run_trace(blowdown.parse_delta_sequences(ordered))
        trace = [
            {"stage": s.stage, "x": s.x, "p": s.p, "q": s.q, "genus": s.genus}
            for s in states
        ]
    _emit(
        {
            "verdict": {
                "kind": verdict.kind,
                "case": verdict.case_tag,
                "certificate": _cert_json(verdict.certificate),
                "reason": verdict.reason,
                "stage": verdict.stage,
                "diagnostic": verdict.diagnostic,
            },
            "trace": trace,
        }
    )
    return 0


def _cmd_sweep(args) -> int:
    # imported here: the process pool's modules cost every other command
    # a large share of its start-up time
    from . import sweeps

    jobs = args.jobs
    oracle = sweeps.route_oracle_sweep(args.r, args.max_denominator, jobs=jobs)
    derived = sweeps.derived_consistency_sweep(args.r, args.max_denominator, jobs=jobs)
    _emit(
        {
            "r": args.r,
            "max_denominator": args.max_denominator,
            "jobs": jobs,
            "gamma_multisets": oracle.examined,
            "realizable": oracle.realizable,
            "route_oracle_mismatches": [[_frac(g) for g in c] for c in oracle.mismatches],
            "inconclusive": [[_frac(g) for g in c] for c in oracle.inconclusive],
            "derived_manifolds": derived.examined,
            "foliation_contact_violations": [
                [b, g, [list(f) for f in fibers], kind]
                for b, g, fibers, kind in derived.violations
            ],
        }
    )
    if oracle.mismatches or oracle.inconclusive or derived.violations:
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfiber",
        description="Transverse contact structures and foliations on Seifert fibered 3-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="normalized form, e, e0, Gamma, chi for M and -M")
    p.add_argument("expr", help='Seifert data "{b; g; (a1,b1),...}" or - for stdin')
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("decide", help="existence decision as JSON")
    p.add_argument("kind", choices=["contact", "foliation", "invariant-contact"])
    p.add_argument("expr", help='Seifert data or - for stdin')
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("realizable", help="realizability oracle for a gamma vector")
    p.add_argument("gammas", help='comma-separated fractions, e.g. "1/2,1/3,1/5"')
    p.set_defaults(func=_cmd_realizable)

    p = sub.add_parser("plumbing", help="DOT export of the star-shaped plumbing")
    p.add_argument("expr", help='Seifert data or - for stdin')
    p.add_argument("--dot", help="write the DOT graph to this path instead of stdout")
    p.add_argument(
        "--double-cover",
        action="store_true",
        help="plumb the pullback over the orientable double cover when g < 0",
    )
    p.set_defaults(func=_cmd_plumbing)

    p = sub.add_parser("blowdown-trace", help="route verdict plus the (x,p,q,genus) trace")
    p.add_argument("gammas", help='comma-separated fractions, e.g. "3/5,1/3,1/9"')
    p.set_defaults(func=_cmd_blowdown_trace)

    p = sub.add_parser("sweep", help="route-vs-oracle and foliation=>contact consistency suites")
    p.add_argument("--r", type=int, required=True, help="number of gamma entries")
    p.add_argument("--max-denominator", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SeifertParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidSeifertError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
