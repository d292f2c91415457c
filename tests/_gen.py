"""Random scenario generators and independent brute-force oracles.

The oracles deliberately avoid the library's set machinery: they walk
plain token lists element by element so they can disagree with the
implementation if it is wrong.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from fractions import Fraction

from setchoice import Alternative, Environment, Individual, Society, Universe
from setchoice._core.kernel_py import Plan

from _golden import ROOT

DENOMS = (1, 2, 3, 4, 5, 8, 10, 100)


# --- generators -------------------------------------------------------------

def token_pool(size: int) -> tuple[str, ...]:
    return tuple(f"g{i:02d}" for i in range(size))


def random_universe(rng: random.Random, max_size=8, min_size=1) -> Universe:
    return Universe(token_pool(rng.randint(min_size, max_size)))


def random_members(rng: random.Random, universe: Universe,
                   min_size=1) -> tuple[str, ...]:
    k = rng.randint(min_size, len(universe))
    return tuple(rng.sample(universe.objectives, k))


def random_environment(rng: random.Random, universe: Universe,
                       max_alternatives=5) -> Environment:
    count = rng.randint(1, max_alternatives)
    return Environment(tuple(
        Alternative(f"alt{i}", universe.subset(random_members(rng, universe)))
        for i in range(count)))


def random_crisp_individual(rng, universe, ind_id) -> Individual:
    return Individual.crisp(ind_id, universe, random_members(rng, universe))


def random_fuzzy_individual(rng, universe, ind_id) -> Individual:
    while True:
        mu = {}
        for token in universe.objectives:
            if rng.random() < 0.7:
                den = rng.choice(DENOMS)
                mu[token] = Fraction(rng.randint(0, den), den)
        if any(v > 0 for v in mu.values()):
            return Individual(ind_id, universe, mu)


def random_society(rng, universe, max_individuals=5, crisp=False) -> Society:
    count = rng.randint(1, max_individuals)
    individuals = []
    for i in range(count):
        if crisp or rng.random() < 0.5:
            individuals.append(random_crisp_individual(rng, universe, f"ind{i}"))
        else:
            individuals.append(random_fuzzy_individual(rng, universe, f"ind{i}"))
    return Society(tuple(individuals))


def random_scenario_parts(rng, max_universe=8, max_alternatives=5,
                          max_individuals=5, crisp=False):
    """``(environment, society)`` over one random universe."""
    universe = random_universe(rng, max_universe)
    environment = random_environment(rng, universe, max_alternatives)
    society = random_society(rng, universe, max_individuals, crisp=crisp)
    return environment, society


def planned(natural: Plan, **paths) -> Plan:
    """The plan ``natural`` with the fields named in ``paths`` replaced: a
    test forces a kernel or mean path with it."""
    return Plan(**{**dict(zip(Plan._fields, natural._values())), **paths})


def one_objective_document(count: int, objectives: int = 64,
                           seed: int = 0) -> str:
    """A crisp scenario file of ``count`` individuals and ``count``
    alternatives, each on one of ``objectives`` objectives: no individual
    shares two objectives with an alternative, so a search for such a pair
    finds none and must look at every individual and every alternative."""
    rng = random.Random(seed)
    universe = token_pool(objectives)
    return json.dumps({
        "universe": list(universe),
        "alternatives": [{"id": f"a{i}", "offers": [rng.choice(universe)]}
                         for i in range(count)],
        "individuals": [{"id": f"p{i}", "requires": [rng.choice(universe)]}
                        for i in range(count)]})


def distinct_weights_document(individuals: int = 200, objectives: int = 48,
                              digits: int = 30, alternatives: int = 8,
                              seed: int = 0) -> str:
    """A weighted scenario file in which no two number literals are alike:
    each of ``individuals`` individuals weights every one of ``objectives``
    objectives by its own ``digits``-digit decimal in (0, 1).  A parse can
    share no value between two weights, and the individuals' weight totals
    are distinct and wide."""
    rng = random.Random(seed)
    universe = token_pool(objectives)
    drawn: dict[int, None] = {}
    while len(drawn) < individuals * objectives:
        drawn[rng.randrange(10 ** (digits - 1), 10 ** digits)] = None
    weights = iter(drawn)
    alts = [{"id": f"a{j}", "offers": rng.sample(universe,
                                                 rng.randint(1, objectives))}
            for j in range(alternatives)]
    lines = [f'{{"id": "p{i}", "membership": {{'
             + ", ".join(f'"{token}": 0.{next(weights)}' for token in universe)
             + "}}" for i in range(individuals)]
    return (f'{{"universe": {json.dumps(list(universe))}, '
            f'"alternatives": {json.dumps(alts)}, '
            f'"individuals": [{", ".join(lines)}]}}')


def sparse_wide_document(objectives: int, individuals: int,
                         alternatives: int, weighted: bool = False,
                         seed: int = 0) -> str:
    """A scenario file over a wide universe of ``objectives`` objectives in
    which each individual and each alternative names two of them: the file
    grows with ``individuals + alternatives``, while the individual x
    objective matrix grows with ``individuals * objectives``.  An
    individual ``requires`` its two objectives or, when ``weighted``,
    weights them by two decimals in (0, 1]."""
    rng = random.Random(seed)
    universe = token_pool(objectives)

    def individual(i: int) -> dict:
        pair = rng.sample(universe, 2)
        if not weighted:
            return {"id": f"p{i}", "requires": pair}
        return {"id": f"p{i}", "membership": {
            token: float(rng.choice(("0.25", "0.5", "0.75", "1")))
            for token in pair}}

    return json.dumps({
        "universe": list(universe),
        "alternatives": [{"id": f"a{j}", "offers": rng.sample(universe, 2)}
                         for j in range(alternatives)],
        "individuals": [individual(i) for i in range(individuals)]})


def tiny_negative_weights_document(individuals: int) -> str:
    """A weighted scenario file of ``individuals`` individuals whose one
    weight is the 999-character literal ``-0.000...1`` (996 places): inside
    the number bound and just below 0, so each individual is one
    ``membership out of range`` finding, whose quote of the value must not
    grow with the literal."""
    literal = "-0." + "0" * 995 + "1"
    entries = ", ".join(f'{{"id": "p{i}", "membership": {{"a": {literal}}}}}'
                        for i in range(individuals))
    return ('{"universe": ["a"], "alternatives": [{"id": "x", "offers": ["a"]}], '
            f'"individuals": [{entries}]}}')


def workload_documents(seed: int) -> list:
    """The benchmark's documents of ``seed``, from every workload."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks its module up
    spec.loader.exec_module(workloads)
    return [document for name in workloads.WORKLOADS
            for document in workloads.generate(name, seed)]


# --- oracles ----------------------------------------------------------------

def oracle_union(token_lists) -> list[str]:
    out: list[str] = []
    for tokens in token_lists:
        for t in tokens:
            if t not in out:
                out.append(t)
    return out


def oracle_intersection(xs, ys) -> list[str]:
    return [t for t in xs if t in ys]


def oracle_difference(xs, ys) -> list[str]:
    return [t for t in xs if t not in ys]


def oracle_cardinal(offer_tokens, required_tokens) -> int:
    hits = 0
    for t in offer_tokens:
        if t in required_tokens:
            hits += 1
    return hits


def oracle_normalized(offer_tokens, required_tokens) -> Fraction:
    return Fraction(oracle_cardinal(offer_tokens, required_tokens),
                    len(required_tokens))


def oracle_fuzzy(offer_tokens, weights, universe_tokens) -> Fraction:
    covered = Fraction(0)
    total = Fraction(0)
    for t in universe_tokens:
        w = weights.get(t, Fraction(0))
        total += w
        if t in offer_tokens:
            covered += w
    return covered / total


def oracle_shares_two(supports, offers) -> bool:
    """Whether some support and some offer masks share two or more bits, by
    scanning every pair: the cardinal out-of-domain flag by definition."""
    return any((support & offer).bit_count() > 1
               for support in supports for offer in offers)


def oracle_mean(values) -> Fraction:
    total = Fraction(0)
    for v in values:
        total += v
    return total / len(values)


def reference_format_decimal(value, digits: int) -> str:
    """Fixed-point rendering through Fraction rounding (round half to even),
    the reference for the library's integer formatter."""
    f = Fraction(value)
    if digits <= 0:
        return str(round(f))
    scale = 10 ** digits
    scaled = round(f * scale)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // scale}.{scaled % scale:0{digits}d}"


def oracle_ranking(ids, values) -> list[list[str]]:
    """Comparison-sort grouping: decreasing value, ids sorted inside groups."""
    pairs = sorted(zip(ids, values), key=lambda p: (-p[1], p[0]))
    groups: list[list[str]] = []
    last = None
    for alt_id, value in pairs:
        if groups and value == last:
            groups[-1].append(alt_id)
        else:
            groups.append([alt_id])
            last = value
    return [sorted(g) for g in groups]
