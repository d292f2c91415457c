"""Independent oracle for the benchmark's outputs.

Expected values are computed from the generator's plain token lists and
integer weights with ``fractions.Fraction`` and this file's own half-even
rounding; nothing from ``setchoice`` is imported.  ``check`` parses what the
CLI printed and returns a list of mismatches (empty when the output agrees).
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from workloads import Document

PRECISION = 6
_SCALE = 10 ** PRECISION


def decimal(num: int, den: int) -> str:
    """num/den (non-negative) to PRECISION places, rounding half to even."""
    q, r = divmod(num * _SCALE, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return f"{q // _SCALE}.{q % _SCALE:0{PRECISION}d}"


@dataclass(frozen=True)
class Expected:
    """What a correct run prints, reduced to comparable values."""

    universes: dict[str, tuple[str, ...]] | None = None
    profiles: tuple[tuple[str, tuple[str, ...]], ...] | None = None
    social: tuple[str, ...] | None = None
    ranking: tuple[tuple[int, str, tuple[str, ...]], ...] | None = None
    findings: tuple[tuple[str, str, str], ...] | None = None


def _universes(doc: Document) -> dict[str, tuple[str, ...]]:
    offered = {t for _, offers in doc.alternatives for t in offers}
    requested = {t for _, weights in doc.individuals for t in weights}

    def ordered(tokens):
        return tuple(t for t in doc.universe if t in tokens)

    return {
        "universe": doc.universe,
        "opportunity": ordered(offered),
        "exigence": ordered(requested),
        "offered_only": ordered(offered - requested),
        "requested_only": ordered(requested - offered),
        "matched": ordered(offered & requested),
    }


def expect(doc: Document) -> Expected:
    """The values a correct run of ``doc``'s operation prints."""
    if doc.verb == "validate":
        return Expected(findings=doc.findings)
    measure = doc.measure
    position = {t: i for i, t in enumerate(doc.universe)}
    offer_positions = [[position[t] for t in set(offers)]
                       for _, offers in doc.alternatives]
    offer_bits = [sum(1 << p for p in offers) for offers in offer_positions]
    rows, dens = [], []
    for _, weights in doc.individuals:
        if measure == "fuzzy":
            weight = [weights.get(t, 0) for t in doc.universe].__getitem__
            rows.append([sum(map(weight, offers)) for offers in offer_positions])
            dens.append(sum(weights.values()))
        else:
            # crisp: the overlap is a count, taken on bit sets of the tokens
            support = sum(1 << position[t] for t in weights)
            rows.append([(support & offers).bit_count() for offers in offer_bits])
            dens.append(len(weights) if measure == "normalized" else 1)
    # exact mean of num/den down each column, over one common denominator
    groups = defaultdict(list)
    for row, den in zip(rows, dens):
        groups[den].append(row)
    common = lcm(*groups)
    totals = [0] * len(offer_positions)
    for den, group in groups.items():
        scale = common // den
        for j, column in enumerate(zip(*group)):
            totals[j] += sum(column) * scale
    social = [Fraction(total, common * len(rows)) for total in totals]

    tiers: dict[Fraction, list[str]] = defaultdict(list)
    for (alt_id, _), value in zip(doc.alternatives, social):
        tiers[value].append(alt_id)
    ranking = tuple((i, decimal(value.numerator, value.denominator),
                     tuple(sorted(tiers[value])))
                    for i, value in enumerate(sorted(tiers, reverse=True), 1))
    if doc.verb == "rank":
        return Expected(ranking=ranking)
    cells = tuple(
        (ind_id, tuple(str(num) if measure == "cardinal" else decimal(num, den)
                       for num in row))
        for (ind_id, _), row, den in zip(doc.individuals, rows, dens))
    return Expected(universes=_universes(doc), profiles=cells,
                    social=tuple(decimal(v.numerator, v.denominator)
                                 for v in social),
                    ranking=ranking)


# --- parsing what the CLI printed -------------------------------------------

def _tokens(text: str) -> tuple[str, ...]:
    members = text.split(": ", 1)[1]
    return () if members == "(none)" else tuple(members.split())


def _tiers(rows) -> tuple:
    """Ranking rows (tier, value, alternative) grouped into tiers."""
    out = []
    for tier, value, alternative in rows:
        if out and out[-1][0] == int(tier):
            out[-1][2].append(alternative)
        else:
            out.append((int(tier), value, [alternative]))
    return tuple((tier, value, tuple(ids)) for tier, value, ids in out)


def _table_ranking(lines: list[str]) -> tuple:
    out = []
    for line in lines:
        tier, value, *ids = line.split()
        out.append((int(tier), value, tuple(ids)))
    return tuple(out)


def _json_ranking(tiers) -> tuple:
    return tuple((t["tier"], t["utility"], tuple(t["alternatives"])) for t in tiers)


def _csv_rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != header:
        raise ValueError(f"csv header {rows[0]} is not {header}")
    return rows[1:]


_RANKINGS = {
    "table": lambda text: _table_ranking(text.rstrip("\n").split("\n")[2:]),
    "json": lambda text: _json_ranking(json.loads(text)["ranking"]),
    "csv": lambda text: _tiers(_csv_rows(text, ["tier", "value", "alternative"])),
}

def _table_findings(text: str) -> tuple:
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith(("OK:", "INVALID:")):
        raise ValueError("missing validation summary line")
    return tuple(tuple(line.split(None, 2)) for line in lines[1:])


_FINDINGS = {
    "table": _table_findings,
    "json": lambda text: tuple((f["severity"], f["location"], f["message"])
                               for f in json.loads(text)["findings"]),
    "csv": lambda text: tuple(map(tuple, _csv_rows(
        text, ["severity", "location", "message"]))),
}


def _parse_report_table(text: str, alt_ids) -> Expected:
    lines = text.rstrip("\n").split("\n")
    at = {line: i for i, line in enumerate(lines)
          if line and not line[0].isspace() and line.endswith(":")}
    u = lines.index("partition:")
    universes = {
        "universe": _tokens(lines[u - 3]),
        "opportunity": _tokens(lines[u - 2]),
        "exigence": _tokens(lines[u - 1]),
        "offered_only": _tokens(lines[u + 1]),
        "requested_only": _tokens(lines[u + 2]),
        "matched": _tokens(lines[u + 3]),
    }
    p, s, r = (at["individual profiles:"], at["social profile (mean):"],
               at["ranking:"])
    header = lines[p + 1].split()
    if tuple(header[1:]) != alt_ids:
        raise ValueError("profile header does not list the alternatives")
    profiles = tuple((row[0], tuple(row[1:]))
                     for row in (line.split() for line in lines[p + 2:s - 1]))
    social_rows = [line.split() for line in lines[s + 2:r - 1]
                   if not line.startswith("note:")]
    if tuple(row[0] for row in social_rows) != alt_ids:
        raise ValueError("social profile does not list the alternatives")
    return Expected(universes=universes, profiles=profiles,
                    social=tuple(row[1] for row in social_rows),
                    ranking=_table_ranking(lines[r + 2:]))


def _parse_report_json(text: str, alt_ids) -> Expected:
    payload = json.loads(text)
    part = payload["partition"]
    universes = {
        "universe": tuple(payload["universe"]),
        "opportunity": tuple(payload["opportunity_universe"]),
        "exigence": tuple(payload["exigence_universe"]),
        "offered_only": tuple(part["offered_only"]),
        "requested_only": tuple(part["requested_only"]),
        "matched": tuple(part["matched"]),
    }
    for values in ([p["values"] for p in payload["profiles"]]
                   + [payload["social_profile"]["values"]]):
        if tuple(values) != alt_ids:
            raise ValueError("a value map does not list the alternatives in order")
    return Expected(
        universes=universes,
        profiles=tuple((p["individual"], tuple(p["values"].values()))
                       for p in payload["profiles"]),
        social=tuple(payload["social_profile"]["values"].values()),
        ranking=_json_ranking(payload["ranking"]))


def _parse_report_csv(text: str, alt_ids) -> Expected:
    profiles: dict[str, list[str]] = {}
    social, ranking = [], []
    for section, individual, alternative, value, tier in _csv_rows(
            text, ["section", "individual", "alternative", "value", "tier"]):
        if section == "profile":
            profiles.setdefault(individual, []).append((alternative, value))
        elif section == "social":
            social.append((alternative, value))
        elif section == "rank":
            ranking.append((tier, value, alternative))
        else:
            raise ValueError(f"unknown csv section {section!r}")
    for pairs in list(profiles.values()) + [social]:
        if tuple(a for a, _ in pairs) != alt_ids:
            raise ValueError("a csv section does not list the alternatives in order")
    return Expected(
        profiles=tuple((ind, tuple(v for _, v in pairs))
                       for ind, pairs in profiles.items()),
        social=tuple(v for _, v in social),
        ranking=_tiers(ranking))


_REPORTS = {"table": _parse_report_table, "json": _parse_report_json,
            "csv": _parse_report_csv}


def parse(doc: Document, text: str) -> Expected:
    fmt = doc.output_format
    if doc.verb == "validate":
        return Expected(findings=_FINDINGS[fmt](text))
    if doc.verb == "rank":
        return Expected(ranking=_RANKINGS[fmt](text))
    return _REPORTS[fmt](text, tuple(a for a, _ in doc.alternatives))


def check(doc: Document, expected: Expected, text: str) -> list[str]:
    """Mismatches between the printed output and the oracle's values."""
    try:
        got = parse(doc, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{doc.name}: unparseable output ({exc!r})"]
    problems = []
    for name in ("universes", "profiles", "social", "ranking", "findings"):
        want, have = getattr(expected, name), getattr(got, name)
        if want is None or have is None:
            continue
        if want != have:
            problems.append(f"{doc.name}: {name} differ from the oracle "
                            f"({_first_difference(want, have)})")
    return problems


def _first_difference(want, have, where: str = "") -> str:
    if isinstance(want, dict) and isinstance(have, dict):
        for key in want:
            if want[key] != have.get(key):
                return _first_difference(want[key], have.get(key), f"{where}.{key}")
        return f"{where}: unexpected keys"
    if isinstance(want, tuple) and isinstance(have, tuple):
        for i, (w, h) in enumerate(zip(want, have)):
            if w != h:
                return _first_difference(w, h, f"{where}[{i}]")
        return f"{where}: expected {len(want)} entries, got {len(have)}"
    return f"{where}: expected {want!r}, got {have!r}"
