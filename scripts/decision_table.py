#!/usr/bin/env python3
"""Dump a CSV of existence decisions over an enumeration of Seifert data.

Example:
    python scripts/decision_table.py --max-alpha 5 --max-r 2 --max-b 2 > table.csv
"""

import argparse
import csv
import os
import sys
from itertools import combinations_with_replacement

from sfiber.cli import seifert_to_text
from sfiber.decide import (
    admits_invariant_transverse_contact,
    admits_transverse_contact,
    admits_transverse_foliation,
)
from sfiber.seifert import SeifertData, e_zero, euler_number
from sfiber.sweeps import fiber_pairs


def _rows(args):
    """The header, then one row per (fibers, g, b) cell."""
    yield ["seifert", "e", "e0", "contact", "contact_case",
           "foliation", "foliation_case", "invariant_contact"]
    pairs = fiber_pairs(args.max_alpha)
    for r in range(args.max_r + 1):
        for fibers in combinations_with_replacement(pairs, r):
            for g in args.genus:
                for b in range(-args.max_b, args.max_b + 1):
                    data = SeifertData(b, g, fibers)
                    contact = admits_transverse_contact(data)
                    foliation = admits_transverse_foliation(data)
                    invariant = admits_invariant_transverse_contact(data)
                    yield [
                        seifert_to_text(data),
                        str(euler_number(data)),
                        e_zero(data),
                        contact.answer,
                        contact.fired_case or "",
                        foliation.answer,
                        foliation.fired_case or "",
                        invariant.answer,
                    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-alpha", type=int, default=5)
    parser.add_argument("--max-r", type=int, default=2)
    parser.add_argument("--max-b", type=int, default=2)
    parser.add_argument("--genus", type=int, nargs="*", default=[-1, 0, 1])
    args = parser.parse_args()

    try:
        csv.writer(sys.stdout).writerows(_rows(args))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (e.g. `| head`).  Point stdout at devnull
        # so that the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
