"""Pinned torsion answers on seeded random complexes.

``tests/data/torsion_golden.json`` holds, for scrambled acyclic complexes
from ``support.random_acyclic`` and identity maps onto rebased copies from
``support.iso_map``, the ``milnor_torsion`` and ``relative_torsion``
representative, cutoff and trivial flag, or the class name of the error
raised.  The cases cover the k1, k2 and tie lattices, with exact units and
with units truncated above their lead, at a tail on the weight grid and
at one off it.  A change to the arithmetic or the
elimination that keeps the answers keeps this file byte for byte.

Regenerate it (only for a deliberate change of answers) with::

    PYTHONPATH=src:tests python tests/test_torsion_golden.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from novtorsion import milnor_torsion, relative_torsion

from support import CUT, iso_map, k1_lattice, k2_lattice, random_acyclic, tie_lattice

GOLDEN = Path(__file__).parent / "data" / "torsion_golden.json"
LATTICES = (("k1", k1_lattice), ("k2", k2_lattice), ("tie", tie_lattice))
SEEDS = (0, 1, 2, 3)
PAIRS = (2, 4, 6)
# 17/3 is off the weight grid of all three lattices (1/1, 1/71 and 1/1)
TAILS = (("exact", None), ("truncated", Fraction(5)), ("off-grid", Fraction(17, 3)))


def _answer(compute) -> dict:
    try:
        cls = compute()
    except (ArithmeticError, ValueError) as exc:  # the error class is part of the answer
        return {"error": type(exc).__name__}
    return {
        "representative": str(cls.representative),
        "cutoff": None if cls.cutoff is None else str(cls.cutoff),
        "trivial": cls.trivial,
    }


def golden_records() -> list[dict]:
    records = []
    for name, make in LATTICES:
        for seed in SEEDS:
            for pairs in PAIRS:
                for kind, tail in TAILS:
                    rng = random.Random(1000 * seed + pairs)
                    cplx, _ = random_acyclic(rng, make(), pairs=pairs, tail=tail)
                    f, _, _ = iso_map(rng, cplx)
                    records.append(
                        {
                            "case": "%s seed %d pairs %d %s" % (name, seed, pairs, kind),
                            "milnor": _answer(lambda: milnor_torsion(cplx, CUT)),
                            "relative": _answer(lambda: relative_torsion(f, CUT)),
                        }
                    )
    return records


def golden_text() -> str:
    return json.dumps(golden_records(), indent=1, sort_keys=True) + "\n"


def test_torsion_answers_match_golden():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(golden_text(), encoding="utf-8")
