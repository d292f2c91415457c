"""Seeded scenario documents for the pipeline benchmark.

Each workload is a fixed cycle of documents, every one paired with the CLI
operation that runs on it.  Everything is drawn from ``random.Random(seed)``,
so one seed gives byte-identical files; the program under test only ever
sees those files.

Every document also keeps the plain data it was written from (token lists
and integer weights in hundredths), which the oracle in ``oracle.py`` uses
instead of anything the program computes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: Denominators of the weighted workload's weights before they are rounded
#: to two decimals, as in the repository's own property tests.
DENOMS = (1, 2, 3, 4, 5, 8, 10, 100)
FORMATS = ("table", "json", "csv")
#: Depth of the nested-array probe.  The parser's recursion limit is far
#: below it, so the probe costs a few milliseconds whatever happens.
NESTING_DEPTH = 50000


@dataclass
class Document:
    """One generated file and the operation run on it."""

    name: str
    text: str
    verb: str
    options: tuple[str, ...] = ()
    expected_rc: int = 0
    #: N*M utility cells the operation computes (0 for ``validate``).
    cells: int = 0
    #: A known-defect probe: run and reported, but not an operation.
    probe: bool = False
    universe: tuple[str, ...] = ()
    alternatives: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: (id, {objective: weight in hundredths}); crisp individuals weigh 100.
    individuals: tuple[tuple[str, dict[str, int]], ...] = ()
    #: Findings a ``validate`` run must report, as (severity, location, message).
    findings: tuple[tuple[str, str, str], ...] = ()

    def argv(self, path: str) -> list[str]:
        return [self.verb, path, *self.options]

    @property
    def measure(self) -> str | None:
        if "--measure" in self.options:
            return self.options[self.options.index("--measure") + 1]
        return None

    @property
    def output_format(self) -> str:
        if "--format" in self.options:
            return self.options[self.options.index("--format") + 1]
        return "table"


# --- drawing ----------------------------------------------------------------

def _universe(size: int) -> tuple[str, ...]:
    return tuple(f"o{i:03d}" for i in range(size))


def _subset(rng: random.Random, universe: tuple[str, ...]) -> list[str]:
    """A random subset covering 25-75% of the universe, in random order."""
    size = len(universe)
    return rng.sample(universe, rng.randint(-(-size // 4), (3 * size) // 4))


def _weight(rng: random.Random) -> int:
    """A positive weight num/den rounded half-even to two decimals, in
    hundredths."""
    den = rng.choice(DENOMS)
    num = rng.randint(1, den)
    q, r = divmod(num * 100, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return max(q, 1)


def _literal(hundredths: int) -> str:
    whole, frac = divmod(hundredths, 100)
    return f"{whole}.{frac:02d}".rstrip("0").rstrip(".") if frac else str(whole)


def _alternatives(rng, universe, count):
    return tuple((f"a{j:03d}", tuple(_subset(rng, universe)))
                 for j in range(count))


def _crisp(rng, universe, count):
    return tuple((f"p{i:04d}", {t: 100 for t in _subset(rng, universe)})
                 for i in range(count))


def _weighted(rng, universe, count):
    return tuple((f"p{i:04d}", {t: _weight(rng) for t in _subset(rng, universe)})
                 for i in range(count))


# --- writing ----------------------------------------------------------------

def _individual_json(ind_id: str, weights: dict[str, int]) -> str:
    if all(w == 100 for w in weights.values()):
        return json.dumps({"id": ind_id, "requires": list(weights)})
    body = ", ".join(f"{json.dumps(t)}: {_literal(w)}" for t, w in weights.items())
    return f'{{"id": {json.dumps(ind_id)}, "membership": {{{body}}}}}'


def scenario_text(universe, alternatives, individual_lines) -> str:
    alts = ",\n    ".join(json.dumps({"id": a, "offers": list(offers)})
                          for a, offers in alternatives)
    inds = ",\n    ".join(individual_lines)
    return (f'{{\n  "universe": {json.dumps(list(universe))},\n'
            f'  "alternatives": [\n    {alts}\n  ],\n'
            f'  "individuals": [\n    {inds}\n  ]\n}}\n')


def _valid(name, universe, alternatives, individuals, verb, options) -> Document:
    text = scenario_text(universe, alternatives,
                         [_individual_json(i, w) for i, w in individuals])
    return Document(name=name, text=text, verb=verb, options=tuple(options),
                    cells=len(alternatives) * len(individuals),
                    universe=universe, alternatives=alternatives,
                    individuals=individuals)


def _invalid(rng, name, universe, alternatives, individuals, options) -> Document:
    """A tall document whose last tenth carries one unknown objective, one
    out-of-range weight and one duplicate id, each in its own individual."""
    n = len(individuals)
    late = sorted(rng.sample(range(n - n // 10, n), 3))
    kinds = ["unknown", "range", "duplicate"]
    rng.shuffle(kinds)
    lines = [_individual_json(i, w) for i, w in individuals]
    findings = []
    for index, kind in zip(late, kinds):
        ind_id, weights = individuals[index]
        loc = f"individuals[{index}]"
        if kind == "unknown":
            tokens = list(weights)
            slot = rng.randrange(len(tokens) + 1)
            tokens.insert(slot, "zz-undeclared")
            lines[index] = json.dumps({"id": ind_id, "requires": tokens})
            findings.append(("error", f"{loc}.requires[{slot}]",
                             "unknown objective 'zz-undeclared'"))
        elif kind == "range":
            token = rng.choice(universe)
            lines[index] = (f'{{"id": {json.dumps(ind_id)}, '
                            f'"membership": {{{json.dumps(token)}: 1.25}}}}')
            findings.append(("error", f"{loc}.membership.{token}",
                             "membership out of range: 1.25 is not in [0, 1]"))
        else:
            twin = individuals[rng.randrange(n - n // 10)][0]
            lines[index] = json.dumps({"id": twin, "requires": list(weights)})
            findings.append(("error", f"{loc}.id",
                             f"duplicate individual id '{twin}'"))
    return Document(name=name, text=scenario_text(universe, alternatives, lines),
                    verb="validate", options=tuple(options), expected_rc=1,
                    findings=tuple(findings))


def _nested(name: str) -> Document:
    return Document(name=name, text="[" * NESTING_DEPTH, verb="validate",
                    expected_rc=1, probe=True)


# --- workloads --------------------------------------------------------------

def fuzzy_report(rng: random.Random) -> list[Document]:
    """Six weighted documents (R=96, M=120, N=200), full ``evaluate`` report,
    formats cycling table -> json -> csv."""
    universe = _universe(96)
    docs = []
    for k in range(6):
        fmt = FORMATS[k % 3]
        docs.append(_valid(f"fuzzy-{k}.json", universe,
                           _alternatives(rng, universe, 120),
                           _weighted(rng, universe, 200),
                           "evaluate", ["--measure", "fuzzy", "--format", fmt]))
    return docs


def crisp_rank(rng: random.Random) -> list[Document]:
    """Three crisp documents (R=96, M=400, N=400) ranked by ``normalized``,
    one per format."""
    universe = _universe(96)
    return [_valid(f"crisp-{k}.json", universe,
                   _alternatives(rng, universe, 400),
                   _crisp(rng, universe, 400),
                   "rank", ["--measure", "normalized", "--format", fmt])
            for k, fmt in enumerate(FORMATS)]


def intake(rng: random.Random) -> list[Document]:
    """Tall crisp documents (R=32, M=4, N=4000): three in four are ranked by
    ``cardinal``, one in four is invalid late and runs ``validate``; formats
    rotate, and each cycle ends with one deeply nested probe.

    Hostile numbers such as a ``1e-80000`` weight are left out on purpose:
    their parse cost grows without bound with the exponent, so a single one
    would swamp the run rather than show a defect."""
    universe = _universe(32)
    docs = []
    for k in range(8):
        alternatives = _alternatives(rng, universe, 4)
        individuals = _crisp(rng, universe, 4000)
        fmt = ["--format", FORMATS[k % 3]]
        if k % 4 == 3:
            docs.append(_invalid(rng, f"intake-{k}.json", universe,
                                 alternatives, individuals, fmt))
        else:
            docs.append(_valid(f"intake-{k}.json", universe, alternatives,
                               individuals, "rank", ["--measure", "cardinal", *fmt]))
    docs.append(_nested("intake-nested.json"))
    return docs


WORKLOADS = {
    "fuzzy-report": fuzzy_report,
    "crisp-rank": crisp_rank,
    "intake": intake,
}


def generate(workload: str, seed: int) -> list[Document]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
