"""The three workloads: inputs made from a seed, the timed operations, and
the checks of every answer against reference.py.

A workload runs in rounds.  Every round performs the same mix of
operations on fresh inputs, and a run repeats rounds until its time is
up, so every run attempts whole rounds.  The program is called through
module attributes (``decide.admits_transverse_contact``), never through
names imported here, so that a traced run sees every call.
"""

from __future__ import annotations

import io
import json
import statistics
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

from sfiber import blowdown, cli, decide, plumbing, seifert, sweeps

import reference

WORKER = str(Path(__file__).with_name("worker.py"))
SUBPROCESS_TIMEOUT_S = 150
# Cold CLI decisions per round of interactive and deep: a run's cli_cold_ms
# is the median over a few dozen process starts, not over a handful.
COLD_PER_ROUND = 4

KINDS = ("contact", "foliation", "invariant")


class Run:
    """Timings, counts and check failures of one workload run."""

    def __init__(self):
        self.seconds = defaultdict(lambda: array("d"))  # operation kind -> wall time of each operation
        self.items = Counter()  # operation kind -> instances it processed (sweep suites)
        self.cli_seconds = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def time(self, kind, fn, *args):
        """Run one operation; None if it raised, which counts it as failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation is counted and the run goes on
            self.failed += 1
            print(f"{kind} failed on {args!r}: {exc!r}", file=sys.stderr)
            return None
        self.seconds[kind].append(perf_counter() - start)
        return result

    def subprocess(self, argv, record_cli: bool):
        """Run a fresh Python process; its parsed JSON stdout, or None if it failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *argv], capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            proc = None
        elapsed = perf_counter() - start
        if proc is None or proc.returncode != 0:
            self.failed += 1
            print(f"{argv!r} failed: {proc and proc.stderr.strip()}", file=sys.stderr)
            return None
        if record_cli:
            self.cli_seconds.append(elapsed)
        return json.loads(proc.stdout)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)


def frac_text(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def check_decision(run: Run, kind: str, b: int, g: int, fibers, decision) -> None:
    """Answer, clause, certificate and evidence against the integer reference."""
    ref = reference.decide(kind, b, g, fibers)
    cert = decision.evidence["certificate"]
    got = (decision.answer, decision.fired_case, cert and (cert.m, cert.a, tuple(cert.assignment)))
    where = f"{kind} {{{b}; {g}; {fibers}}}"
    run.expect(got == (ref["answer"], ref["case"], ref["certificate"]), f"{where}: {got} != {ref}")
    e = decision.evidence["e"]
    evidence = {**decision.evidence, "e": (e.numerator, e.denominator)}
    run.expect(
        all(evidence[key] == value for key, value in ref["evidence"].items()),
        f"{where}: evidence {decision.evidence} != {ref['evidence']}",
    )
    if cert is not None:
        run.expect(
            reference.certificate_holds(ref["gammas"], cert.m, cert.a, cert.assignment),
            f"{where}: certificate {cert} violates its inequalities",
        )


def check_cli_decision(run: Run, payload, decision) -> None:
    """A cold `sfiber decide` report must equal the in-process decision."""
    cert = decision.evidence["certificate"]
    evidence = {k: frac_text(v) if isinstance(v, Fraction) else v for k, v in decision.evidence.items()}
    evidence["certificate"] = cert and {"m": cert.m, "a": cert.a, "assignment": list(cert.assignment)}
    expected = {"answer": decision.answer, "case": decision.fired_case, "evidence": evidence}
    run.expect(payload == expected, f"cold CLI {payload} != in-process {expected}")


def seifert_text(b: int, g: int, fibers) -> str:
    pairs = ",".join(f"({alpha},{beta})" for alpha, beta in fibers)
    return f"{{{b}; {g}; {pairs}}}" if fibers else f"{{{b}; {g};}}"


def fibers_of(values) -> tuple[tuple[int, int], ...]:
    """Fibers (alpha, beta) with gamma = 1 - beta/alpha for reduced gammas."""
    return tuple((den, den - num) for num, den in values)


def reduced(num: int, den: int) -> tuple[int, int]:
    common = gcd(num, den)
    return num // common, den // common


# --- interactive ------------------------------------------------------------

G_VALUES, G_WEIGHTS = (-2, -1, 0, 1, 2), (1, 2, 6, 2, 1)
R_WEIGHTS = (1, 2, 3, 6, 6, 2)  # r = 0..5, weighted to 3-4
MAX_ALPHA = 60
COPRIME = {a: [x for x in range(1, a) if gcd(a, x) == 1] for a in range(2, MAX_ALPHA + 1)}
QUERIES_PER_ROUND = 2000


def interactive_query(text: str):
    """The everyday path: parse, the three decisions, and the plumbing as DOT."""
    data = cli.parse_seifert(text)
    answers = (
        decide.admits_transverse_contact(data),
        decide.admits_transverse_foliation(data),
        decide.admits_invariant_transverse_contact(data),
    )
    dot = None
    if data.g >= 0:
        dot = plumbing.to_dot(plumbing.build_plumbing(seifert.normalize(data)))
    return data, answers, dot


class Interactive:
    """Seifert expressions as a user types them: r = 0..5, alpha <= 60, some
    beta outside (0, alpha), g in -2..2 weighted to 0, and half of the g = 0
    inputs with e0 = -1, so that the realizability clause and the decision
    cache are reached.  Cold CLI decisions on the first queries of each round."""

    def __init__(self, rng, run: Run, cold: bool):
        self.rng, self.run, self.cold = rng, run, cold

    def query(self):
        rng = self.rng
        g = rng.choices(G_VALUES, G_WEIGHTS)[0]
        r = rng.choices(range(len(R_WEIGHTS)), R_WEIGHTS)[0]
        fibers = []
        for _ in range(r):
            alpha = rng.randint(2, MAX_ALPHA)
            beta = rng.choice(COPRIME[alpha])
            if rng.random() < 0.2:
                beta += alpha * rng.choice((-2, -1, 1, 2))
            fibers.append((alpha, beta))
        if g == 0 and rng.random() < 0.5:
            b = 1 - r - sum(beta // alpha for alpha, beta in fibers)  # normalized e0 = -1
        else:
            b = rng.randint(-4, 3)
        return b, g, tuple(fibers)

    def round(self):
        run = self.run
        queries = [self.query() for _ in range(QUERIES_PER_ROUND)]
        texts = [seifert_text(*q) for q in queries]
        results = [run.time("query", interactive_query, text) for text in texts]
        for (b, g, fibers), result in zip(queries, results):
            if result is None:
                continue
            data, answers, dot = result
            run.expect((data.b, data.g, data.fibers) == (b, g, fibers), f"parsed {data} from {b, g, fibers}")
            for kind, decision in zip(KINDS, answers):
                check_decision(run, kind, b, g, fibers, decision)
            if g >= 0:
                run.expect(dot == reference.plumbing_dot(b, g, fibers), f"DOT of {b, g, fibers}")
        if not self.cold:
            return
        for text, result in zip(texts[:COLD_PER_ROUND], results):
            if result is not None:
                payload = run.subprocess(["-m", "sfiber.cli", "decide", "contact", text], record_cli=True)
                if payload is not None:
                    check_cli_decision(run, payload, result[1][0])


# --- deep -------------------------------------------------------------------

class Distinct:
    """Distinct integers from [lo, hi) in seeded random order; once all are
    used, from [hi, 2*hi - lo), and so on, so that none repeats in a run."""

    def __init__(self, rng, lo: int, hi: int):
        self.rng, self.lo, self.hi, self.pending = rng, lo, hi, []

    def draw(self) -> int:
        if not self.pending:
            self.pending = list(range(self.lo, self.hi))
            self.rng.shuffle(self.pending)
            self.lo, self.hi = self.hi, 2 * self.hi - self.lo
        return self.pending.pop()


def route_trace(gammas):
    """The `sfiber blowdown-trace` path: the verdict, then the full state trace."""
    verdict = blowdown.decide_route(gammas)
    return verdict, blowdown.run_trace(blowdown.parse_delta_sequences(gammas))


class Deep:
    """Contact decisions on e0 = -1 triples whose oracle search is long, and
    blow-down traces whose expansions are long.  No gamma vector repeats
    within a run, so the decision cache never answers for the oracle.

    Every round walks the same ladder of sizes:
      * triples near the realizability boundary at m = 400, 700 and twice
        1000, one on each side of it (the oracle searches up to m);
      * (1/2, 1/2 - 1/N, 2/N) at N = 2000, 4000 (1/gamma_3 = N/2);
      * (1 - 1/N, 1/(N+1), 1/(N+2)) at N = 1500, 2200 (1/gamma_3 = N + 2);
      * blow-down traces of the second family at N = 10^4, 4*10^4, where
        1/gamma_1 expands to N - 1 terms.
    The family sizes get one fresh seeded offset per round (below 100, and
    below 1000 for the traces), which keeps their vectors distinct.  So
    every round costs about the same whatever the seed, and the latency
    quantiles fall inside groups of similar cost rather than between
    them: p50 among the four m = 1000 triples, p90 among the three
    largest operations (first family at 4000, second at 2200, the longer
    trace), which cost about the same today.  The smaller first-family
    manifold also goes through cold CLI decisions, each in a fresh process
    with a cache of its own.
    """

    BOUNDARY_M = (400, 700, 1000, 1000)
    FAMILY1_N = (2000, 4000)
    FAMILY2_N = (1500, 2200)
    TRACE_N = (10_000, 40_000)

    def __init__(self, rng, run: Run, cold: bool):
        self.rng, self.run, self.cold = rng, run, cold
        self.offsets = Distinct(rng, 0, 100)
        self.trace_offsets = Distinct(rng, 0, 1000)
        self.seen = set()

    def boundary(self, m: int, realizable: bool):
        """gamma_1, gamma_2 just below a/m and (m-a)/m, gamma_3 just on the
        realizable or the unrealizable side of 1/m.  With k >= m the only
        fraction of denominator <= m in (gamma_1, 1 - gamma_2) is a/m.  With
        a/m in (0.55, 0.7) the route's expansions stay short."""
        while True:
            a = self.rng.choice([x for x in range(11 * m // 20 + 1, 7 * m // 10) if gcd(x, m) == 1])
            k = m + self.rng.randrange(m)
            side = -1 if realizable else 1
            triple = (reduced(a * k - 1, m * k), reduced((m - a) * k - 1, m * k), reduced(k + side, m * k))
            if triple not in self.seen:
                self.seen.add(triple)
                return triple

    def round(self):
        run = self.run
        offset, trace_offset = self.offsets.draw(), self.trace_offsets.draw()
        triples = [self.boundary(m, side) for m in self.BOUNDARY_M for side in (True, False)]
        cold = len(triples)  # the smaller first-family manifold
        for n in self.FAMILY1_N:
            n += offset
            triples.append(((1, 2), reduced(n - 2, 2 * n), reduced(2, n)))
        for n in self.FAMILY2_N:
            n += offset
            triples.append(((n - 1, n), (1, n + 1), (1, n + 2)))
        manifolds = [seifert.SeifertData(-2, 0, fibers_of(t)) for t in triples]  # e0 = -1
        decisions = [run.time("decision", decide.admits_transverse_contact, m) for m in manifolds]
        for data, decision in zip(manifolds, decisions):
            if decision is not None:
                check_decision(run, "contact", data.b, data.g, data.fibers, decision)

        for n in self.TRACE_N:
            n += trace_offset
            values = ((n - 1, n), (1, n + 1), (1, n + 2))
            result = run.time("trace", route_trace, tuple(Fraction(p, q) for p, q in values))
            if result is not None:
                self.check_trace(values, *result)

        if self.cold and decisions[cold] is not None:
            text = seifert_text(-2, 0, manifolds[cold].fibers)
            for _ in range(COLD_PER_ROUND):
                payload = run.subprocess(["-m", "sfiber.cli", "decide", "contact", text], record_cli=True)
                if payload is not None:
                    check_cli_decision(run, payload, decisions[cold])

    def check_trace(self, values, verdict, states):
        run = self.run
        ref = reference.certificate(values)
        run.expect(verdict.kind == ("realizable" if ref else "obstructed"), f"route {verdict} on {values}")
        if verdict.certificate is not None and verdict.kind == "realizable":
            cert = verdict.certificate
            run.expect(reference.certificate_holds(values, cert.m, cert.a, cert.assignment),
                       f"route certificate {cert} on {values}")
        n3, d3 = values[2]
        d = -(-d3 // n3)  # ceil(1/gamma_3)
        run.expect(
            all(2 * s.genus - 2 - s.x + s.p + s.q == d - 1 for s in states) and len(states) >= 1,
            f"trace on {values} breaks 2*genus - 2 - x + p + q = d - 1",
        )


# --- sweep ------------------------------------------------------------------

SUITES = {
    # the A8 shape: star plumbings, negative definite exactly when e(M) < 0
    "definiteness": {"bs": range(-4, 5), "max_alpha": 7, "max_r": 4},
    # the A9 shape: foliation => contact both ways, e < 0 => contact
    "consistency": {"gs": (-2, -1, 0, 1, 2), "bs": range(-3, 4), "max_alpha": 5, "max_r": 4},
    # both passes of `sfiber sweep`: route vs oracle, then derived consistency
    "route_oracle": {"r": 3, "max_denominator": 10},
}
COLD_SWEEP_DENOMINATOR = 6
# No process pool in the cold sweep: on a few shared cores, pool start-up
# measures the scheduler.  The suites measure the pool.
COLD_SWEEP_JOBS = 1


def sweep_argv(r: int, max_denominator: int, jobs: int) -> list[str]:
    return ["sweep", "--r", str(r), "--max-denominator", str(max_denominator), "--jobs", str(jobs)]


def run_suite(name: str, jobs: int) -> dict:
    """One suite at its fixed range; the report's counts and list lengths."""
    p = SUITES[name]
    if name == "definiteness":
        rep = sweeps.definiteness_sweep(p["bs"], p["max_alpha"], p["max_r"], jobs=jobs)
        return {"examined": rep.examined, "negative_definite": rep.negative_definite,
                "failures": len(rep.failures)}
    if name == "consistency":
        rep = sweeps.theorem_consistency_sweep(p["gs"], p["bs"], p["max_alpha"], p["max_r"], jobs=jobs)
        return {"examined": rep.examined, "violations": len(rep.violations)}
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(sweep_argv(p["r"], p["max_denominator"], jobs))
    return {"exit": code, **json.loads(out.getvalue())}


def fresh_cache() -> None:
    """Empty decide's process-wide oracle cache: the in-process stand-in for
    the fresh process every suite gets in an untraced run."""
    clear = getattr(decide._oracle_with_shadow, "cache_clear", None)
    if clear is not None:
        clear()


def expected_sweep_report(r: int, max_denominator: int) -> dict:
    total, realizable = reference.realizable_multisets(r, max_denominator)
    return {"gamma_multisets": total, "derived_manifolds": total, "realizable": realizable,
            "route_oracle_mismatches": [], "inconclusive": [], "foliation_contact_violations": []}


def suite_items(name: str, report: dict) -> int:
    """Instances a suite run examined: plumbings, Seifert data or multisets."""
    if name == "route_oracle":
        return report["gamma_multisets"] + report["derived_manifolds"]
    return report["examined"]


class Sweep:
    """The exhaustive cross-validation suites at reduced ranges, each in a
    fresh process with jobs = min(2, cores); in a traced run, in-process
    with jobs = 1.  A cold `sfiber sweep` at jobs = 1 after each suite."""

    def __init__(self, rng, run: Run, cold: bool, jobs: int):
        self.rng, self.run, self.cold, self.jobs = rng, run, cold, jobs
        d, c = SUITES["definiteness"], SUITES["consistency"]
        r, den = SUITES["route_oracle"]["r"], SUITES["route_oracle"]["max_denominator"]
        self.expected = {
            "definiteness": {
                "examined": len(d["bs"]) * reference.multiset_count(
                    len(reference.fiber_pairs(d["max_alpha"])), d["max_r"]),
                "negative_definite": reference.negative_euler_cells(d["bs"], d["max_alpha"], d["max_r"]),
                "failures": 0,
            },
            "consistency": {
                "examined": len(c["gs"]) * len(c["bs"]) * reference.multiset_count(
                    len(reference.fiber_pairs(c["max_alpha"])), c["max_r"]),
                "violations": 0,
            },
            "route_oracle": {"exit": 0, "r": r, "max_denominator": den, "jobs": jobs,
                             **expected_sweep_report(r, den)},
        }
        self.cold_expected = {"r": 3, "max_denominator": COLD_SWEEP_DENOMINATOR, "jobs": COLD_SWEEP_JOBS,
                              **expected_sweep_report(3, COLD_SWEEP_DENOMINATOR)}

    def round(self):
        run = self.run
        names = list(SUITES)
        shift = self.rng.randrange(len(names))
        for name in names[shift:] + names[:shift]:
            if self.cold:
                out = run.subprocess([WORKER, "--suite", name, "--jobs", str(self.jobs)], record_cli=False)
                if out is None:
                    continue
                run.seconds[name].append(out["seconds"])
                report = out["report"]
            else:
                fresh_cache()
                report = run.time(name, run_suite, name, self.jobs)
                if report is None:
                    continue
            expected = self.expected[name]
            run.expect(report == expected, f"{name} suite: {report} != {expected}")
            run.items[name] += suite_items(name, report)
            if self.cold:
                self.cold_sweep()

    def cold_sweep(self):
        argv = ["-m", "sfiber.cli", *sweep_argv(3, COLD_SWEEP_DENOMINATOR, COLD_SWEEP_JOBS)]
        payload = self.run.subprocess(argv, record_cli=True)
        if payload is not None:
            self.run.expect(payload == self.cold_expected, f"cold sweep {payload} != {self.cold_expected}")


def per_second(count: int, seconds) -> float:
    return count / sum(seconds) if seconds else 0.0


def quantile(values, percent: int) -> float:
    """Exclusive-method percentile; 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="exclusive")[percent - 1]


def detail(name: str, run: Run) -> dict:
    """Per-kind figures of one run, under the names the README tabulates."""
    s = run.seconds
    if name == "interactive":
        return {"queries_per_s": per_second(len(s["query"]), s["query"]),
                "query_p50_us": 1e6 * quantile(s["query"], 50),
                "query_p99_us": 1e6 * quantile(s["query"], 99)}
    if name == "deep":
        return {"deep_decisions_per_s": per_second(len(s["decision"]), s["decision"]),
                "deep_decision_p50_ms": 1e3 * quantile(s["decision"], 50),
                "deep_decision_p90_ms": 1e3 * quantile(s["decision"], 90),
                "route_traces_per_s": per_second(len(s["trace"]), s["trace"])}
    return {f"{kind}_per_s": per_second(run.items[kind], s[kind]) for kind in SUITES}
