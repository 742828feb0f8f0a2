"""Exhaustive cross-validation sweeps.

Three suites, all exact and deterministic:

* route vs oracle: the blow-down route and the simplest-fraction oracle
  must agree on realizability for every gamma multiset in range, with no
  inconclusive verdicts;
* theorem consistency: over an enumeration of normalized Seifert data,
  a transverse foliation (outside S1 x S2) must imply transverse contact
  structures for both orientations, and e(M) < 0 must imply one for M;
* definiteness: the star-shaped plumbing is negative definite exactly
  when e(M) < 0.

One driver runs them all: it deals the items of an enumeration out to
the workers by index stride, runs the suite's check on each, and merges
the reports field by field, so reports are independent of the worker
count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from itertools import chain, combinations_with_replacement, islice
from math import gcd

from . import blowdown, realizability
from .decide import admits_transverse_contact, admits_transverse_foliation
from .plumbing import star_negative_definite
from .seifert import SeifertData, beta_sum, is_product_sphere, reverse_orientation


def gamma_values(max_denominator: int) -> tuple[Fraction, ...]:
    """All reduced fractions in (0,1) with bounded denominator, descending."""
    vals = {
        Fraction(p, q)
        for q in range(2, max_denominator + 1)
        for p in range(1, q)
        if gcd(p, q) == 1
    }
    return tuple(sorted(vals, reverse=True))


def fiber_pairs(max_alpha: int) -> tuple[tuple[int, int], ...]:
    """All normalized fiber pairs (alpha, beta), 0 < beta < alpha <= max_alpha."""
    return tuple(
        (a, b) for a in range(2, max_alpha + 1) for b in range(1, a) if gcd(a, b) == 1
    )


def fibers_for_gammas(gammas) -> tuple[tuple[int, int], ...]:
    """Fiber pairs realizing the given gamma entries: gamma = 1 - beta/alpha."""
    out = []
    for g in gammas:
        g = Fraction(g)
        out.append((g.denominator, g.denominator - g.numerator))
    return tuple(out)


def _run_part(task):
    """One worker's share: every jobs-th item of the enumeration from index on."""
    report_type, items, check, jobs, index = task
    report = report_type()
    for item in islice(items(), index, None, jobs):
        check(report, item)
    return report


def _sweep(report_type, items, check, jobs: int):
    """Run check(report, item) over the enumeration items() on jobs workers.

    ``items`` and ``check`` are pickled for each worker, so state a check
    carries (such as a memo dict bound by ``partial``) is per worker.
    Integer fields of the reports add; list fields extend and are sorted.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(report_type, items, check, jobs, k) for k in range(jobs)]
    if jobs == 1:
        parts = [_run_part(tasks[0])]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_run_part, tasks))
    merged = report_type()
    for f in fields(merged):
        values = [getattr(part, f.name) for part in parts]
        if isinstance(values[0], list):
            setattr(merged, f.name, sorted(chain.from_iterable(values)))
        else:
            setattr(merged, f.name, sum(values))
    return merged


def _gamma_multisets(r: int, max_denominator: int):
    return combinations_with_replacement(gamma_values(max_denominator), r)


def _fiber_multisets(max_alpha: int, max_r: int):
    pairs = fiber_pairs(max_alpha)
    for r in range(max_r + 1):
        yield from combinations_with_replacement(pairs, r)


@dataclass
class RouteOracleReport:
    examined: int = 0
    realizable: int = 0
    mismatches: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.inconclusive


def _check_route_oracle(report: RouteOracleReport, combo) -> None:
    report.examined += 1
    cert = realizability.is_realizable(combo)
    verdict = blowdown.decide_route(combo)
    if cert is not None:
        report.realizable += 1
    if verdict.kind == "inconclusive":
        report.inconclusive.append(combo)
    elif (verdict.kind == "realizable") != (cert is not None):
        report.mismatches.append(combo)


def route_oracle_sweep(r: int, max_denominator: int, jobs: int = 1) -> RouteOracleReport:
    """Compare decide_route with is_realizable on every gamma multiset."""
    return _sweep(RouteOracleReport, partial(_gamma_multisets, r, max_denominator),
                  _check_route_oracle, jobs)


@dataclass
class ConsistencyReport:
    examined: int = 0
    foliations: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_consistency(data: SeifertData, e_negative: bool, report: "ConsistencyReport"):
    """foliation => contact both ways (outside S1 x S2), e<0 => contact."""
    report.examined += 1
    fol = admits_transverse_foliation(data)
    foliated = fol.answer and not is_product_sphere(data)
    if not (foliated or e_negative):
        return
    contact = admits_transverse_contact(data)
    if foliated:
        report.foliations += 1
        rev = admits_transverse_contact(reverse_orientation(data))
        if not (contact.answer and rev.answer):
            report.violations.append((data.b, data.g, data.fibers, "foliation-without-contact"))
    if e_negative and not contact.answer:
        report.violations.append((data.b, data.g, data.fibers, "e<0-without-contact"))


def _check_theorem(gs, bs, report: ConsistencyReport, fibers) -> None:
    num, den = beta_sum(fibers)
    for g in gs:
        for b in bs:
            # e(M) = -b - num/den < 0
            _check_consistency(SeifertData(b, g, fibers), b * den > -num, report)


def theorem_consistency_sweep(
    gs=(-2, -1, 0, 1, 2), bs=range(-3, 4), max_alpha: int = 9, max_r: int = 4, jobs: int = 1
) -> ConsistencyReport:
    """foliation => contact (both orientations) and e<0 => contact, exhaustively."""
    return _sweep(ConsistencyReport, partial(_fiber_multisets, max_alpha, max_r),
                  partial(_check_theorem, tuple(gs), tuple(bs)), jobs)


def _check_derived(report: ConsistencyReport, combo) -> None:
    fibers = fibers_for_gammas(combo)
    num, den = beta_sum(fibers)
    b = 1 - len(combo)  # makes the central weight e0 = -1
    _check_consistency(SeifertData(b, 0, fibers), b * den > -num, report)


def derived_consistency_sweep(r: int, max_denominator: int, jobs: int = 1) -> ConsistencyReport:
    """Run the foliation/contact implications on manifolds with e0 = -1
    realizing every gamma multiset in range."""
    return _sweep(ConsistencyReport, partial(_gamma_multisets, r, max_denominator),
                  _check_derived, jobs)


@dataclass
class DefinitenessReport:
    examined: int = 0
    negative_definite: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_definiteness(bs, legs: dict, report: DefinitenessReport, fibers) -> None:
    num, den = beta_sum(fibers)
    verdicts = star_negative_definite(fibers, bs, legs)
    e_negative = [b * den > -num for b in bs]  # e(M) = -b - num/den < 0
    report.examined += len(verdicts)
    report.negative_definite += sum(verdicts)
    if verdicts != e_negative:
        report.failures.extend((b, fibers) for b, nd, en in zip(bs, verdicts, e_negative) if nd != en)


def definiteness_sweep(
    bs=range(-4, 5), max_alpha: int = 12, max_r: int = 4, jobs: int = 1
) -> DefinitenessReport:
    """The star plumbing must be negative definite exactly when e(M) < 0 on
    the whole range.  Each worker eliminates every leg (alpha, beta) once."""
    legs: dict = {}
    return _sweep(DefinitenessReport, partial(_fiber_multisets, max_alpha, max_r),
                  partial(_check_definiteness, tuple(bs), legs), jobs)
