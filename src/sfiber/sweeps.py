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

Work is partitioned by index stride, so reports are independent of the
worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from . import blowdown, realizability
from .decide import admits_transverse_contact, admits_transverse_foliation
from .plumbing import build_plumbing, intersection_matrix, is_negative_definite
from .seifert import SeifertData, is_product_sphere, reverse_orientation


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


def _run_partitioned(worker, common_args, jobs: int):
    if jobs <= 1:
        return [worker((*common_args, 1, 0))]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, [(*common_args, jobs, k) for k in range(jobs)]))


@dataclass
class RouteOracleReport:
    examined: int = 0
    realizable: int = 0
    mismatches: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.inconclusive


def _route_oracle_worker(args) -> RouteOracleReport:
    r, max_denominator, jobs, index = args
    values = gamma_values(max_denominator)
    report = RouteOracleReport()
    for i, combo in enumerate(combinations_with_replacement(values, r)):
        if i % jobs != index:
            continue
        report.examined += 1
        cert = realizability.is_realizable(combo)
        verdict = blowdown.decide_route(combo)
        if cert is not None:
            report.realizable += 1
        if verdict.kind == "inconclusive":
            report.inconclusive.append(combo)
        elif (verdict.kind == "realizable") != (cert is not None):
            report.mismatches.append(combo)
    return report


def route_oracle_sweep(r: int, max_denominator: int, jobs: int = 1) -> RouteOracleReport:
    """Compare decide_route with is_realizable on every gamma multiset."""
    parts = _run_partitioned(_route_oracle_worker, (r, max_denominator), jobs)
    merged = RouteOracleReport()
    for part in parts:
        merged.examined += part.examined
        merged.realizable += part.realizable
        merged.mismatches.extend(part.mismatches)
        merged.inconclusive.extend(part.inconclusive)
    merged.mismatches.sort()
    merged.inconclusive.sort()
    return merged


@dataclass
class ConsistencyReport:
    examined: int = 0
    foliations: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _fiber_multisets(max_alpha: int, max_r: int):
    pairs = fiber_pairs(max_alpha)
    for r in range(max_r + 1):
        yield from combinations_with_replacement(pairs, r)


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


def _theorem_worker(args) -> ConsistencyReport:
    gs, bs, max_alpha, max_r, jobs, index = args
    report = ConsistencyReport()
    for i, fibers in enumerate(_fiber_multisets(max_alpha, max_r)):
        if i % jobs != index:
            continue
        beta_sum = sum((Fraction(b, a) for a, b in fibers), Fraction(0))
        for g in gs:
            for b in bs:
                _check_consistency(SeifertData(b, g, fibers), -b - beta_sum < 0, report)
    return report


def theorem_consistency_sweep(
    gs=(-2, -1, 0, 1, 2), bs=range(-3, 4), max_alpha: int = 9, max_r: int = 4, jobs: int = 1
) -> ConsistencyReport:
    """foliation => contact (both orientations) and e<0 => contact, exhaustively."""
    parts = _run_partitioned(_theorem_worker, (tuple(gs), tuple(bs), max_alpha, max_r), jobs)
    merged = ConsistencyReport()
    for part in parts:
        merged.examined += part.examined
        merged.foliations += part.foliations
        merged.violations.extend(part.violations)
    merged.violations.sort()
    return merged


def _derived_worker(args) -> ConsistencyReport:
    r, max_denominator, jobs, index = args
    report = ConsistencyReport()
    for i, combo in enumerate(combinations_with_replacement(gamma_values(max_denominator), r)):
        if i % jobs != index:
            continue
        fibers = fibers_for_gammas(combo)
        beta_sum = sum((Fraction(b, a) for a, b in fibers), Fraction(0))
        b = 1 - r  # makes the central weight e0 = -1
        _check_consistency(SeifertData(b, 0, fibers), -b - beta_sum < 0, report)
    return report


def derived_consistency_sweep(r: int, max_denominator: int, jobs: int = 1) -> ConsistencyReport:
    """Run the foliation/contact implications on manifolds with e0 = -1
    realizing every gamma multiset in range."""
    parts = _run_partitioned(_derived_worker, (r, max_denominator), jobs)
    merged = ConsistencyReport()
    for part in parts:
        merged.examined += part.examined
        merged.foliations += part.foliations
        merged.violations.extend(part.violations)
    merged.violations.sort()
    return merged


@dataclass
class DefinitenessReport:
    examined: int = 0
    negative_definite: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _definiteness_worker(args) -> DefinitenessReport:
    bs, max_alpha, max_r, jobs, index = args
    report = DefinitenessReport()
    for i, fibers in enumerate(_fiber_multisets(max_alpha, max_r)):
        if i % jobs != index:
            continue
        beta_sum = sum((Fraction(b, a) for a, b in fibers), Fraction(0))
        sn, sd = beta_sum.numerator, beta_sum.denominator
        for b in bs:
            report.examined += 1
            data = SeifertData(b, 0, fibers)
            nd = is_negative_definite(intersection_matrix(build_plumbing(data)))
            if nd:
                report.negative_definite += 1
            if nd != (b * sd > -sn):  # e(M) = -b - beta_sum < 0
                report.failures.append((b, fibers))
    return report


def definiteness_sweep(
    bs=range(-4, 5), max_alpha: int = 12, max_r: int = 4, jobs: int = 1
) -> DefinitenessReport:
    """is_negative_definite(plumbing) must equal e(M) < 0 on the whole range."""
    parts = _run_partitioned(_definiteness_worker, (tuple(bs), max_alpha, max_r), jobs)
    merged = DefinitenessReport()
    for part in parts:
        merged.examined += part.examined
        merged.negative_definite += part.negative_definite
        merged.failures.extend(part.failures)
    merged.failures.sort()
    return merged
