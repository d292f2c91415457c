#!/usr/bin/env python3
"""Benchmark the compiled utility-matrix kernel against the pure-Python one.

Builds one large random environment with a crisp and a weighted society,
encodes each once, then times utility_matrix for each measure on both
backends and reports the speedup.  ``cardinal`` and ``normalized`` run on
the crisp society, since the pipeline refuses them on weighted
individuals; ``fuzzy`` runs on the weighted one.

    python benchmarks/bench_kernels.py --objectives 96 --alternatives 300 \
        --individuals 400 --repeat 5
"""

from __future__ import annotations

import argparse
import random
import time
from fractions import Fraction

from setchoice import Alternative, Environment, Individual, Society, Universe
from setchoice._core import HAVE_FAST, encode, kernel_py

if HAVE_FAST:
    from setchoice._core import _fast_matrix

MEASURES = ("cardinal", "normalized", "fuzzy")


def build_scenario(rng, objectives, alternatives, individuals):
    """Universe, environment, and a (crisp, weighted) pair of societies."""
    universe = Universe(tuple(f"g{i:03d}" for i in range(objectives)))
    pool = universe.objectives
    env = Environment(tuple(
        Alternative(f"alt{m}", universe.subset(
            rng.sample(pool, rng.randint(1, objectives))))
        for m in range(alternatives)))
    crisp = Society(tuple(
        Individual.crisp(f"ind{n}", universe,
                         rng.sample(pool, rng.randint(1, objectives)))
        for n in range(individuals)))
    weighted = Society(tuple(
        Individual(f"ind{n}", universe, {
            t: Fraction(rng.randint(1, 100), 100)
            for t in rng.sample(pool, rng.randint(1, objectives))})
        for n in range(individuals)))
    return universe, env, crisp, weighted


def best_of(repeat, fn, *args):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objectives", type=int, default=96)
    parser.add_argument("--alternatives", type=int, default=300)
    parser.add_argument("--individuals", type=int, default=400)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    universe, env, crisp, weighted = build_scenario(
        rng, args.objectives, args.alternatives, args.individuals)
    encodings = {"crisp": encode(universe, env, crisp),
                 "weighted": encode(universe, env, weighted)}
    cells = args.individuals * env.size
    print(f"scenario: {len(universe)} objectives, {env.size} alternatives, "
          f"{args.individuals} individuals ({cells} utility cells), "
          f"int64_safe={all(e.int64_safe for e in encodings.values())}")
    if not HAVE_FAST:
        print("compiled kernel not built; timing the pure kernel only")

    header = f"{'measure':<12}{'pure (s)':>12}{'compiled (s)':>14}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for measure in MEASURES:
        enc = encodings["weighted" if measure == "fuzzy" else "crisp"]
        pure = best_of(args.repeat, kernel_py.utility_matrix, enc, measure)
        if HAVE_FAST:
            fast = best_of(args.repeat, _fast_matrix, enc, measure)
            agree = (_fast_matrix(enc, measure)
                     == kernel_py.utility_matrix(enc, measure))
            mark = "" if agree else "  RESULTS DISAGREE"
            print(f"{measure:<12}{pure:>12.4f}{fast:>14.4f}"
                  f"{pure / fast:>9.1f}x{mark}")
        else:
            print(f"{measure:<12}{pure:>12.4f}{'-':>14}{'-':>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
