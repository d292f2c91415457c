"""Scenario files, validation, output rendering, and the pipeline.

A scenario is one JSON document::

    {
      "universe": ["alpha", "beta"],
      "alternatives": [{"id": "a1", "offers": ["alpha"]}],
      "individuals": [
        {"id": "p", "requires": ["alpha"]},
        {"id": "q", "membership": {"alpha": 0.4, "beta": 0.6}}
      ]
    }

``requires`` is the crisp shorthand for a membership of 1 on the listed
objectives.  Numeric literals are parsed exactly (decimal notation never
goes through binary floating point), so evaluation is exact end to end.
Reports render as ``table``, ``json``, or ``csv``; json is the source of
truth and the other two are projections of the same numbers.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ScenarioError
from .evaluation import (
    EvaluationProcess,
    IndividualProfile,
    Ranking,
    SocialProfile,
    build_process,
    evaluate,
    get_aggregator,
    rank,
)
from .measures import (
    Alternative,
    Environment,
    Individual,
    Society,
    UtilityMeasure,
)
from .universe import (
    ObjectiveSet,
    Universe,
    UniversePartition,
    check_token,
    exigence_universe,
    opportunity_universe,
    partition_universe,
)

ERROR = "error"
WARNING = "warning"

FORMATS = ("table", "json", "csv")
DEFAULT_PRECISION = 6


@dataclass(frozen=True)
class Finding:
    severity: str
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == WARNING)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class Scenario:
    universe: Universe
    environment: Environment
    society: Society

    def __post_init__(self):
        if self.environment.universe != self.universe:
            raise ScenarioError("environment does not use the scenario universe")
        if self.society.universe != self.universe:
            raise ScenarioError("society does not use the scenario universe")

    @property
    def objective_count(self) -> int:
        return self.universe.size

    @property
    def alternative_count(self) -> int:
        return self.environment.size

    @property
    def individual_count(self) -> int:
        return self.society.size


# ---------------------------------------------------------------------------
# parsing / validation


class _DuplicateKey(Exception):
    def __init__(self, key):
        super().__init__(key)
        self.key = key


def _pairs_hook(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise _DuplicateKey(key)
        obj[key] = value
    return obj


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def _err(findings, location, message):
    findings.append(Finding(ERROR, location, message))


def _warn(findings, location, message):
    findings.append(Finding(WARNING, location, message))


def _check_token_finding(findings, value, location, what) -> bool:
    try:
        check_token(value, what)
        return True
    except ScenarioError as exc:
        _err(findings, location, str(exc))
        return False


def _valid_weight(value) -> Fraction | None:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        return None
    return Fraction(value)


def _validate_universe(doc, findings) -> list[str]:
    declared: list[str] = []
    if "universe" not in doc:
        _err(findings, "universe", "missing required key 'universe'")
        return declared
    raw = doc["universe"]
    if not isinstance(raw, list):
        _err(findings, "universe", "'universe' must be an array of objective names")
        return declared
    if not raw:
        _err(findings, "universe", "empty universe: declare at least one objective")
        return declared
    seen = set()
    for i, token in enumerate(raw):
        loc = f"universe[{i}]"
        if not _check_token_finding(findings, token, loc, "objective"):
            continue
        if token in seen:
            _err(findings, loc, f"duplicate objective '{token}'")
            continue
        seen.add(token)
        declared.append(token)
    return declared


def _validate_alternatives(doc, declared, findings) -> list[tuple[str, tuple[str, ...]]]:
    out: list[tuple[str, tuple[str, ...]]] = []
    if "alternatives" not in doc:
        _err(findings, "alternatives", "missing required key 'alternatives'")
        return out
    raw = doc["alternatives"]
    if not isinstance(raw, list):
        _err(findings, "alternatives", "'alternatives' must be an array")
        return out
    if not raw:
        _err(findings, "alternatives", "environment must contain at least one alternative")
        return out
    ids = set()
    known = set(declared)
    for i, entry in enumerate(raw):
        loc = f"alternatives[{i}]"
        if not isinstance(entry, dict):
            _err(findings, loc, "alternative must be an object")
            continue
        for key in entry:
            if key not in ("id", "offers"):
                _warn(findings, f"{loc}.{key}", f"unknown key '{key}'")
        if "id" not in entry:
            _err(findings, loc, "missing required key 'id'")
            continue
        alt_id = entry["id"]
        if not _check_token_finding(findings, alt_id, f"{loc}.id", "alternative id"):
            continue
        if alt_id in ids:
            _err(findings, f"{loc}.id", f"duplicate alternative id '{alt_id}'")
            continue
        ids.add(alt_id)
        if "offers" not in entry:
            _err(findings, loc, "missing required key 'offers'")
            continue
        offers = entry["offers"]
        if not isinstance(offers, list):
            _err(findings, f"{loc}.offers", "'offers' must be an array of objective names")
            continue
        if not offers:
            _err(findings, f"{loc}.offers",
                 f"alternative '{alt_id}' offers no objectives")
            continue
        members: list[str] = []
        bad = False
        for j, token in enumerate(offers):
            tloc = f"{loc}.offers[{j}]"
            if not isinstance(token, str):
                _err(findings, tloc, "objective name must be a string")
                bad = True
                continue
            if token not in known:
                _err(findings, tloc, f"unknown objective '{token}'")
                bad = True
                continue
            if token in members:
                _warn(findings, tloc, f"objective '{token}' listed twice")
                continue
            members.append(token)
        if not bad:
            out.append((alt_id, tuple(members)))
    return out


def _validate_membership(raw, loc, known, findings) -> dict[str, Fraction] | None:
    if not isinstance(raw, dict):
        _err(findings, loc, "'membership' must be an object of objective weights")
        return None
    mu: dict[str, Fraction] = {}
    bad = False
    for token, value in raw.items():
        tloc = f"{loc}.{token}"
        if token not in known:
            _err(findings, tloc, f"unknown objective '{token}'")
            bad = True
            continue
        weight = _valid_weight(value)
        if weight is None:
            _err(findings, tloc, "membership value must be a number")
            bad = True
            continue
        if weight < 0 or weight > 1:
            _err(findings, tloc,
                 f"membership out of range: {_plain_number(value)} is not in [0, 1]")
            bad = True
            continue
        mu[token] = weight
    if bad:
        return None
    if all(v == 0 for v in mu.values()):
        _err(findings, loc, "empty support: no objective has positive weight")
        return None
    return mu


def _validate_individuals(doc, declared, findings) -> list[tuple[str, dict[str, Fraction]]]:
    out: list[tuple[str, dict[str, Fraction]]] = []
    if "individuals" not in doc:
        _err(findings, "individuals", "missing required key 'individuals'")
        return out
    raw = doc["individuals"]
    if not isinstance(raw, list):
        _err(findings, "individuals", "'individuals' must be an array")
        return out
    if not raw:
        _err(findings, "individuals", "society must contain at least one individual")
        return out
    ids = set()
    known = set(declared)
    for i, entry in enumerate(raw):
        loc = f"individuals[{i}]"
        if not isinstance(entry, dict):
            _err(findings, loc, "individual must be an object")
            continue
        for key in entry:
            if key not in ("id", "membership", "requires"):
                _warn(findings, f"{loc}.{key}", f"unknown key '{key}'")
        if "id" not in entry:
            _err(findings, loc, "missing required key 'id'")
            continue
        ind_id = entry["id"]
        if not _check_token_finding(findings, ind_id, f"{loc}.id", "individual id"):
            continue
        if ind_id in ids:
            _err(findings, f"{loc}.id", f"duplicate individual id '{ind_id}'")
            continue
        ids.add(ind_id)
        has_membership = "membership" in entry
        has_requires = "requires" in entry
        if has_membership == has_requires:
            _err(findings, loc,
                 "exactly one of 'membership' or 'requires' must be given")
            continue
        if has_requires:
            requires = entry["requires"]
            rloc = f"{loc}.requires"
            if not isinstance(requires, list):
                _err(findings, rloc, "'requires' must be an array of objective names")
                continue
            if not requires:
                _err(findings, rloc,
                     "empty support: individual requires no objectives")
                continue
            mu: dict[str, Fraction] | None = {}
            for j, token in enumerate(requires):
                tloc = f"{rloc}[{j}]"
                if not isinstance(token, str):
                    _err(findings, tloc, "objective name must be a string")
                    mu = None
                elif token not in known:
                    _err(findings, tloc, f"unknown objective '{token}'")
                    mu = None
                elif mu is not None:
                    if token in mu:
                        _warn(findings, tloc, f"objective '{token}' listed twice")
                    else:
                        mu[token] = Fraction(1)
        else:
            mu = _validate_membership(entry["membership"], f"{loc}.membership",
                                      known, findings)
        if mu is not None:
            out.append((ind_id, mu))
    return out


def _plain_number(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return format_decimal(value, 6).rstrip("0").rstrip(".") or "0"
    return str(value)


def validate_scenario(text: str) -> ValidationReport:
    """Validate scenario-file content, collecting every finding."""
    _, report = _parse(text)
    return report


def parse_scenario(text: str) -> Scenario | ValidationReport:
    """Parse scenario-file content.

    Returns a fully validated :class:`Scenario`, or — if anything is wrong
    — the :class:`ValidationReport` with at least one error and no partial
    scenario.
    """
    scenario, report = _parse(text)
    return scenario if scenario is not None else report


def _parse(text: str) -> tuple[Scenario | None, ValidationReport]:
    findings: list[Finding] = []
    try:
        doc = json.loads(text, parse_float=Fraction,
                         parse_constant=_reject_constant,
                         object_pairs_hook=_pairs_hook)
    except _DuplicateKey as exc:
        _err(findings, "$", f"duplicate key '{exc.key}'")
        return None, ValidationReport(tuple(findings))
    except ValueError as exc:
        _err(findings, "$", f"invalid JSON: {exc}")
        return None, ValidationReport(tuple(findings))

    if not isinstance(doc, dict):
        _err(findings, "$", "scenario must be a JSON object")
        return None, ValidationReport(tuple(findings))

    for key in doc:
        if key not in ("universe", "alternatives", "individuals"):
            _warn(findings, key, f"unknown key '{key}'")

    declared = _validate_universe(doc, findings)
    alternatives = _validate_alternatives(doc, declared, findings)
    individuals = _validate_individuals(doc, declared, findings)

    if any(f.severity == ERROR for f in findings):
        return None, ValidationReport(tuple(findings))

    universe = Universe(tuple(declared))
    environment = Environment(tuple(
        Alternative(alt_id, ObjectiveSet(universe, frozenset(members)))
        for alt_id, members in alternatives))
    society = Society(tuple(
        Individual(ind_id, universe, mu) for ind_id, mu in individuals))
    scenario = Scenario(universe, environment, society)
    return scenario, ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# number rendering


def format_ratio(num: int, den: int, digits: int = DEFAULT_PRECISION) -> str:
    """Exact fixed-point rendering of ``num / den`` (``den > 0``), rounded
    half to even, in integer arithmetic only."""
    scale = 10 ** digits if digits > 0 else 1
    scaled, rest = divmod(num * scale, den)
    rest += rest
    if rest > den or (rest == den and scaled & 1):
        scaled += 1
    if digits <= 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), scale)
    return f"{sign}{whole}.{frac:0{digits}d}"


def format_decimal(value, digits: int = DEFAULT_PRECISION) -> str:
    """Exact fixed-point rendering of a rational (round half to even)."""
    f = Fraction(value)
    return format_ratio(f.numerator, f.denominator, digits)


def format_utility(value, precision: int = DEFAULT_PRECISION) -> str:
    """Counts render as integers, everything else as fixed-point decimal."""
    if isinstance(value, bool):
        raise TypeError("utility values are numbers")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return format_decimal(value, precision)


def _profile_cells(profile: IndividualProfile, precision: int) -> list[str]:
    """One profile's rendered utilities, formatted from its integer row."""
    if profile.integral:
        return [str(num) for num in profile.nums]
    den = profile.den
    return [format_ratio(num, den, precision) for num in profile.nums]


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class PipelineResult:
    scenario: Scenario
    measure: UtilityMeasure
    aggregator: str
    opportunity: ObjectiveSet
    exigence: ObjectiveSet
    partition: UniversePartition
    process: EvaluationProcess
    social: SocialProfile
    ranking: Ranking


def compute_pipeline(scenario: Scenario, measure: UtilityMeasure | str,
                     aggregator: str = "mean") -> PipelineResult:
    """Run universes, profiles, social aggregation, and ranking."""
    measure = UtilityMeasure(measure)
    aggregator_obj = get_aggregator(aggregator)
    process = build_process(measure, aggregator_obj, scenario.environment,
                            scenario.society, scenario.universe)
    social = evaluate(process)
    return PipelineResult(
        scenario=scenario,
        measure=measure,
        aggregator=aggregator_obj.name,
        opportunity=opportunity_universe(scenario.environment),
        exigence=exigence_universe(scenario.society),
        partition=partition_universe(scenario.environment, scenario.society),
        process=process,
        social=social,
        ranking=rank(social, scenario.environment),
    )


def run_pipeline(scenario: Scenario, measure: UtilityMeasure | str,
                 aggregator: str = "mean", output_format: str = "table",
                 precision: int = DEFAULT_PRECISION) -> str:
    """End-to-end evaluation rendered as a full report."""
    result = compute_pipeline(scenario, measure, aggregator)
    return render_report(result, output_format, precision)


# ---------------------------------------------------------------------------
# renderers


def _check_format(output_format: str) -> None:
    if output_format not in FORMATS:
        raise ScenarioError(f"unknown format '{output_format}' "
                            f"(known: {', '.join(FORMATS)})")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _columns(rows: list[tuple[str, ...]]) -> list[str]:
    if not rows:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


def _members_line(objective_set: ObjectiveSet) -> str:
    members = objective_set.ordered()
    return " ".join(members) if members else "(none)"


def render_validation(report: ValidationReport, output_format: str = "table") -> str:
    _check_format(output_format)
    if output_format == "json":
        return _json_text({
            "ok": report.ok,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "findings": [
                {"severity": f.severity, "location": f.location,
                 "message": f.message}
                for f in report.findings
            ],
        })
    if output_format == "csv":
        return _csv_text(("severity", "location", "message"),
                         [(f.severity, f.location, f.message)
                          for f in report.findings])
    lines = []
    if report.ok:
        lines.append("OK: scenario is valid"
                     + (f" ({len(report.warnings)} warning(s))"
                        if report.warnings else ""))
    else:
        lines.append(f"INVALID: {len(report.errors)} error(s), "
                     f"{len(report.warnings)} warning(s)")
    rows = [(f.severity, f.location, f.message) for f in report.findings]
    lines.extend(_columns(rows))
    return "\n".join(lines) + "\n"


def _universe_sets(scenario: Scenario):
    opportunity = opportunity_universe(scenario.environment)
    exigence = exigence_universe(scenario.society)
    partition = partition_universe(scenario.environment, scenario.society)
    return opportunity, exigence, partition


def render_universes(scenario: Scenario, output_format: str = "table") -> str:
    _check_format(output_format)
    opportunity, exigence, partition = _universe_sets(scenario)
    if output_format == "json":
        return _json_text({
            "universe": list(scenario.universe.objectives),
            "opportunity_universe": list(opportunity.ordered()),
            "exigence_universe": list(exigence.ordered()),
            "partition": {
                "offered_only": list(partition.offered_only.ordered()),
                "requested_only": list(partition.requested_only.ordered()),
                "matched": list(partition.matched.ordered()),
            },
        })
    if output_format == "csv":
        rows = [("universe", t) for t in scenario.universe.objectives]
        rows += [("opportunity", t) for t in opportunity.ordered()]
        rows += [("exigence", t) for t in exigence.ordered()]
        rows += [("partition.offered_only", t)
                 for t in partition.offered_only.ordered()]
        rows += [("partition.requested_only", t)
                 for t in partition.requested_only.ordered()]
        rows += [("partition.matched", t) for t in partition.matched.ordered()]
        return _csv_text(("set", "objective"), rows)
    lines = [
        f"universe ({scenario.universe.size}): "
        + " ".join(scenario.universe.objectives),
        f"opportunity universe ({len(opportunity)}): {_members_line(opportunity)}",
        f"exigence universe ({len(exigence)}): {_members_line(exigence)}",
        "partition:",
        f"  offered only ({len(partition.offered_only)}): "
        + _members_line(partition.offered_only),
        f"  requested only ({len(partition.requested_only)}): "
        + _members_line(partition.requested_only),
        f"  matched ({len(partition.matched)}): "
        + _members_line(partition.matched),
    ]
    return "\n".join(lines) + "\n"


def render_utilities(scenario: Scenario, measure: UtilityMeasure | str,
                     output_format: str = "table",
                     precision: int = DEFAULT_PRECISION) -> str:
    _check_format(output_format)
    measure = UtilityMeasure(measure)
    process = build_process(measure, "mean", scenario.environment,
                            scenario.society, scenario.universe)
    alt_ids = scenario.environment.ids
    if output_format == "json":
        return _json_text({
            "measure": measure.value,
            "precision": precision,
            "utilities": [
                {"individual": p.individual_id,
                 "values": dict(zip(alt_ids, _profile_cells(p, precision)))}
                for p in process.profiles
            ],
        })
    if output_format == "csv":
        rows = [(p.individual_id, a, cell)
                for p in process.profiles
                for a, cell in zip(alt_ids, _profile_cells(p, precision))]
        return _csv_text(("individual", "alternative", "value"), rows)
    lines = [f"utilities (measure={measure.value})"]
    rows = [("individual",) + alt_ids]
    for p in process.profiles:
        rows.append((p.individual_id, *_profile_cells(p, precision)))
    lines.extend(_columns(rows))
    return "\n".join(lines) + "\n"


def _ranking_rows(ranking: Ranking, precision: int):
    rows = []
    for tier_index, tier in enumerate(ranking.tiers, start=1):
        for alt_id in tier.ids:
            rows.append((tier_index, format_utility(tier.value, precision), alt_id))
    return rows


def render_ranking(result: PipelineResult, output_format: str = "table",
                   precision: int = DEFAULT_PRECISION) -> str:
    _check_format(output_format)
    if output_format == "json":
        return _json_text({
            "measure": result.measure.value,
            "aggregator": result.aggregator,
            "precision": precision,
            "ranking": _ranking_payload(result.ranking, precision),
        })
    if output_format == "csv":
        rows = [(str(tier), value, alt_id)
                for tier, value, alt_id in _ranking_rows(result.ranking, precision)]
        return _csv_text(("tier", "value", "alternative"), rows)
    lines = [f"ranking (measure={result.measure.value}, "
             f"aggregator={result.aggregator})"]
    rows = [("tier", "utility", "alternatives")]
    for tier_index, tier in enumerate(result.ranking.tiers, start=1):
        rows.append((str(tier_index), format_utility(tier.value, precision),
                     " ".join(tier.ids)))
    lines.extend(_columns(rows))
    return "\n".join(lines) + "\n"


def _ranking_payload(ranking: Ranking, precision: int):
    return [
        {"tier": i, "utility": format_utility(tier.value, precision),
         "alternatives": list(tier.ids)}
        for i, tier in enumerate(ranking.tiers, start=1)
    ]


def render_report(result: PipelineResult, output_format: str = "table",
                  precision: int = DEFAULT_PRECISION) -> str:
    _check_format(output_format)
    scenario = result.scenario
    alt_ids = scenario.environment.ids
    if output_format == "json":
        return _json_text({
            "measure": result.measure.value,
            "aggregator": result.aggregator,
            "precision": precision,
            "universe": list(scenario.universe.objectives),
            "opportunity_universe": list(result.opportunity.ordered()),
            "exigence_universe": list(result.exigence.ordered()),
            "partition": {
                "offered_only": list(result.partition.offered_only.ordered()),
                "requested_only": list(result.partition.requested_only.ordered()),
                "matched": list(result.partition.matched.ordered()),
            },
            "profiles": [
                {"individual": p.individual_id,
                 "values": dict(zip(alt_ids, _profile_cells(p, precision)))}
                for p in result.process.profiles
            ],
            "social_profile": {
                "values": {a: format_utility(v, precision)
                           for a, v in zip(alt_ids, result.social.values)},
                "out_of_domain": result.social.out_of_domain,
            },
            "ranking": _ranking_payload(result.ranking, precision),
        })
    if output_format == "csv":
        rows = [("profile", p.individual_id, a, cell, "")
                for p in result.process.profiles
                for a, cell in zip(alt_ids, _profile_cells(p, precision))]
        rows += [("social", "", a, format_utility(v, precision), "")
                 for a, v in zip(alt_ids, result.social.values)]
        rows += [("rank", "", alt_id, value, str(tier))
                 for tier, value, alt_id in _ranking_rows(result.ranking, precision)]
        return _csv_text(("section", "individual", "alternative", "value", "tier"),
                         rows)

    lines = [
        f"scenario: {scenario.objective_count} objectives, "
        f"{scenario.alternative_count} alternatives, "
        f"{scenario.individual_count} individuals",
        f"measure: {result.measure.value}, aggregator: {result.aggregator}",
        "",
    ]
    lines.append(render_universes(scenario, "table").rstrip("\n"))
    lines.append("")
    lines.append("individual profiles:")
    rows = [("individual",) + alt_ids]
    for p in result.process.profiles:
        rows.append((p.individual_id, *_profile_cells(p, precision)))
    lines.extend(_columns(rows))
    lines.append("")
    lines.append(f"social profile ({result.aggregator}):")
    rows = [("alternative", "utility")]
    rows += [(a, format_utility(v, precision))
             for a, v in zip(alt_ids, result.social.values)]
    lines.extend(_columns(rows))
    if result.social.out_of_domain:
        lines.append("note: utilities fall outside [0, 1]; the aggregator "
                     "domain assumes the unit interval")
    lines.append("")
    lines.append("ranking:")
    rows = [("tier", "utility", "alternatives")]
    for tier_index, tier in enumerate(result.ranking.tiers, start=1):
        rows.append((str(tier_index), format_utility(tier.value, precision),
                     " ".join(tier.ids)))
    lines.extend(_columns(rows))
    return "\n".join(lines) + "\n"
