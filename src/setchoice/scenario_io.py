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
objectives.  Numeric literals are parsed exactly, never through binary
floating point, so evaluation is exact end to end.  Each parse reads a
distinct literal once, through a memo made for that parse (``_load``): the
number bound is checked before the value is built, a literal in (0, 1],
a weight's range, is read as its exact ``(numerator, denominator)``, and
any other as an ``int`` or a ``Decimal``, which a finding quotes.
A key repeated within one JSON object is one finding at ``$``,
``duplicate key``, naming the first repeat: the first repeated key of the
first object the decoder finishes that has one, an inner object
finishing before the object that holds it.  The text is decoded once
without looking for repeats and its colons counted once: each colon
outside a string separates one key from its value, so a count equal to
the keys of the document, its alternatives' and individuals' entries and
their memberships proves that nothing was repeated.  A file that the
count cannot clear (a colon inside a string, an object anywhere else, a
repeat) or that the first decode rejects is decoded a second time,
through the same literal memo, by a decoder that checks every object's
keys (``_pairs_hook``), the only code that words the finding.
The parser is the one validator of a file: it reports each rule as a
located finding and emits each section as columns (ids, masks, and for
individuals the ``_scaled`` weight rows and scales), and stores the
universe, the society and the environment from its checked columns
(``Record._of``), without checking them again and without an
``Individual`` or ``Alternative`` object: each declared objective is
checked once per parse.  A valid objective list is accepted whole by a
few C-level passes, and so is a section of one kind of entry:
alternatives that are all ``{"id", "offers"}``, or individuals that are
all ``{"id", "requires"}`` or all ``{"id", "membership"}``, with valid
ids, lists and memberships whose values are all ratios.  A membership
with a zero weight is left to the located pass, which drops the zero,
and so is every section that mixes ``requires`` and ``membership``
entries.  A section that is refused is tried again in
chunks of ``_CHUNK`` entries, in order: a chunk accepted the same way, with
ids disjoint from those before it, adds its columns, and only the other
chunks go through the located pass, the only code that words a finding
or a warning.  So one bad entry in a section of one kind costs the located
pass over one chunk.  A finding depends only on its entry and the ids
before it, so the findings, their locations and their order are those of
the located pass over the whole section.  A file that starts with a
byte-order mark, or that nests arrays or objects deeper than the JSON
decoder can follow, is one finding at ``$``.  The parse runs with the
cyclic garbage collector paused and restores its state on every exit; it
builds no reference cycles, so nothing is left for a collection, and a
test pins both.
Reports render as ``table``, ``json``, or ``csv``; json is the source of
truth and the other two are projections of the same numbers.  Each
profile's integer row, the social row, and the ranking's tiers are each
formatted in one pass (``format_ratios``).  json and csv are written in
one pass from the payload, byte-identical to ``json.dumps(indent=2)`` and
``csv.writer``: json by a writer over the payload's types that quotes
strings with ``json.encoder``'s C function, csv as lines joined once, with
each id quoted once per report by csv's ``QUOTE_MINIMAL`` rule.
"""

from __future__ import annotations

import gc
import json
from decimal import Decimal
from fractions import Fraction
from functools import cache, partial
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _json_string
from math import lcm
from operator import itemgetter

from ._record import Record
from .errors import ScenarioError
from .evaluation import (
    EvaluationProcess,
    IndividualProfile,
    Ranking,
    SocialProfile,
    build_process,
    evaluate,
    rank,
)
from .literals import (
    DEFAULT_PRECISION,
    _bounded,
    _plain_number,
    _quoted,
    format_ratio,
    format_ratios,
)
from .measures import Environment, Society, UtilityMeasure, _scaled
from .universe import (
    ObjectiveSet,
    Universe,
    UniversePartition,
    _check_shared,
    _token_text,
    check_token,
    exigence_universe,
    opportunity_universe,
    partition_universe,
    token_bits,
)

ERROR = "error"
WARNING = "warning"

FORMATS = ("table", "json", "csv")
#: A parsed value's kind, by its exact type: a boolean is not a number.
_JSON_KINDS = {bool: "boolean", int: "number", Decimal: "number",
               tuple: "number", list: "array", dict: "object",
               type(None): "null"}


class Finding(Record):
    severity: str
    location: str
    message: str


class ValidationReport(Record):
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


class Scenario(Record):
    """An environment and a society over one universe, which both hold:
    ``universe`` reads the environment's, and the constructor refuses a
    society over another.  Sizes are ``len`` of the universe, the
    environment and the society."""

    environment: Environment
    society: Society

    def __post_init__(self):
        _check_shared(self.environment, self.society)

    @property
    def universe(self) -> Universe:
        return self.environment.universe


# ---------------------------------------------------------------------------
# parsing / validation


class _DuplicateKey(Exception):
    def __init__(self, key):
        super().__init__(key)
        self.key = key


def _pairs_hook(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKey(key)
            seen.add(key)
    return obj


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def _dicts(values) -> list[dict]:
    """The dicts among ``values``, in order."""
    values = list(values)
    return list(compress(values, map(isinstance, values, repeat(dict))))


def _scenario_keys(doc) -> int:
    """The number of keys of the dicts ``doc`` holds where a scenario holds
    them: the document, each entry of its alternatives and individuals, and
    each entry's membership.  Each dict is counted once, so the number is
    never above the key/value pairs, and so the colons, of the text."""
    if not isinstance(doc, dict):
        return 0
    entries = _dicts(chain.from_iterable(
        section for section in (doc.get("alternatives"), doc.get("individuals"))
        if isinstance(section, list)))
    memberships = _dicts(filter(None, map(dict.get, entries,
                                          repeat("membership"))))
    return len(doc) + sum(map(len, entries)) + sum(map(len, memberships))


def _load(text: str):
    """The JSON document of ``text``.  A memo made for this call reads each
    distinct number literal once, within the number bound: a value in (0, 1]
    as its exact ``(numerator, denominator)``, the form ``_scaled`` takes,
    any other as an ``int`` or a ``Decimal``.

    The first decode keeps the last value of a repeated key; the decode
    with ``_pairs_hook`` runs only when the colon count of ``text`` differs
    from ``_scenario_keys`` of that document, or when the first decode
    raises, and it raises or returns exactly as a single decode with the
    hook would."""
    def memo(read):
        def value(literal):
            number = read(_bounded(literal))
            return number.as_integer_ratio() if 0 < number <= 1 else number
        return cache(value)
    decode = partial(json.loads, text, parse_float=memo(Decimal),
                     parse_int=memo(int), parse_constant=_reject_constant)
    try:
        doc = decode()
    except (ValueError, RecursionError):
        pass
    else:
        if text.count(":") == _scenario_keys(doc):
            return doc
        del doc  # freed before the second document is built
    return decode(object_pairs_hook=_pairs_hook)


def _err(findings, location, message):
    findings.append(Finding(ERROR, location, message))


def _warn(findings, location, message):
    findings.append(Finding(WARNING, location, message))


def _shown(text: str, quote: str = "'") -> str:
    """Input text as a finding quotes it, between ``quote`` marks: unchanged
    when printable, else escaped, so no control character reaches a
    terminal; a long text is cut, and its length stated, by ``_quoted``."""
    def form(part: str) -> str:
        escaped = part if part.isprintable() else repr(part)[1:-1]
        return f"{quote}{escaped}{quote}"
    return _quoted(text, form)


def _check_token_finding(findings, value, location, what) -> bool:
    if not isinstance(value, str):
        _err(findings, location,
             f"{what} must be a string, got {_JSON_KINDS[type(value)]}")
        return False
    try:
        check_token(value, what)
        return True
    except ScenarioError as exc:
        _err(findings, location, str(exc))
        return False


def _check_present(findings, obj, key, location) -> bool:
    if key in obj:
        return True
    _err(findings, location, f"missing required key '{key}'")
    return False


def _warn_unknown_keys(findings, obj, allowed, prefix="") -> None:
    for key in obj:
        if key not in allowed:
            _warn(findings, prefix + _shown(key, ""),
                  f"unknown key {_shown(key)}")


def _top_array(doc, key, not_array, empty, findings) -> list:
    """``doc[key]`` when it is a non-empty array; else an error at ``key``
    and no entries."""
    if not _check_present(findings, doc, key, key):
        return []
    raw = doc[key]
    if not isinstance(raw, list):
        _err(findings, key, not_array)
        return []
    if not raw:
        _err(findings, key, empty)
    return raw


def _entries(raw, start, ids, section, what, allowed, findings):
    """Yield ``(location, entry, id)`` for each entry of ``raw``, at index
    ``start`` of its section onward, that is an object with a valid id not in
    ``ids``, and add that id to ``ids``; report the others."""
    for i, entry in enumerate(raw, start):
        loc = f"{section}[{i}]"
        if not isinstance(entry, dict):
            _err(findings, loc, f"{what} must be an object")
            continue
        _warn_unknown_keys(findings, entry, allowed, f"{loc}.")
        if not _check_present(findings, entry, "id", loc):
            continue
        entry_id = entry["id"]
        if not _check_token_finding(findings, entry_id, f"{loc}.id", f"{what} id"):
            continue
        if entry_id in ids:
            _err(findings, f"{loc}.id",
                 f"duplicate {what} id {_shown(entry_id)}")
            continue
        ids.add(entry_id)
        yield loc, entry, entry_id


def _objective_list(entry, key, loc, empty, known, findings) -> int | None:
    """The mask of the objectives of the array ``entry[key]`` (``known``
    maps each declared token to its bit), walked once: a token whose bit
    is set already is warned about as a repeat.  None if it is not a
    non-empty array of declared objectives.  Valid lists seldom come
    here: ``_accepted_masks`` takes them a section or a chunk at a time."""
    raw = entry[key]
    if not isinstance(raw, list):
        _err(findings, f"{loc}.{key}",
             f"'{key}' must be an array of objective names")
        return None
    if not raw:
        _err(findings, f"{loc}.{key}", empty)
        return None
    loc = f"{loc}.{key}"
    mask = 0
    bad = False
    for j, token in enumerate(raw):
        if not isinstance(token, str):
            _err(findings, f"{loc}[{j}]", "objective name must be a string")
            bad = True
        elif (bit := known.get(token)) is None:
            _err(findings, f"{loc}[{j}]", f"unknown objective {_shown(token)}")
            bad = True
        elif mask & bit:
            _warn(findings, f"{loc}[{j}]",
                  f"objective {_shown(token)} listed twice")
        else:
            mask |= bit
    return None if bad else mask


def _validate_universe(doc, findings) -> list[str]:
    raw = _top_array(doc, "universe",
                     "'universe' must be an array of objective names",
                     "empty universe: declare at least one objective", findings)
    declared: dict[str, None] = {}
    for i, token in enumerate(raw):
        loc = f"universe[{i}]"
        if not _check_token_finding(findings, token, loc, "objective name"):
            continue
        if token in declared:
            _err(findings, loc, f"duplicate objective {_shown(token)}")
            continue
        declared[token] = None
    return list(declared)


def _located_alternative(loc, entry, alt_id, known, findings
                         ) -> tuple[str, int] | None:
    """The ``(id, mask)`` row of one alternative, or None after its
    findings."""
    if not _check_present(findings, entry, "offers", loc):
        return None
    mask = _objective_list(
        entry, "offers", loc,
        f"alternative {_shown(alt_id)} offers no objectives", known, findings)
    return None if mask is None else (alt_id, mask)


def _validate_alternatives(doc, known, findings
                           ) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The ``(ids, masks)`` columns of the valid alternatives."""
    raw = _top_array(doc, "alternatives", "'alternatives' must be an array",
                     "environment must contain at least one alternative",
                     findings)
    return _section(raw, _accept_alternatives, _located_alternative, known,
                    findings, "alternatives", "alternative",
                    ("id", "offers")) or ((), ())


def _validate_membership(raw, loc, known,
                         findings) -> tuple[int, tuple[int, ...], int] | None:
    """The positive weights, each read as a ratio, of a valid membership
    object, ``_scaled``; any other number is a zero, dropped, or out of range."""
    if not isinstance(raw, dict):
        _err(findings, loc, "'membership' must be an object of objective weights")
        return None
    ratios: dict[int, tuple[int, int]] = {}
    bad = False
    for token, value in raw.items():
        bit = known.get(token)
        if bit is None:
            message = f"unknown objective {_shown(token)}"
        elif type(value) is tuple:
            ratios[bit] = value
            continue
        elif _JSON_KINDS.get(type(value)) != "number":
            message = "membership value must be a number"
        elif not value:
            continue
        else:
            message = (f"membership out of range: "
                       f"{_plain_number(Fraction(value))} is not in [0, 1]")
        _err(findings, f"{loc}.{_shown(token, '')}", message)
        bad = True
    if bad:
        return None
    if not ratios:
        _err(findings, loc, "empty support: no objective has positive weight")
        return None
    return _scaled(ratios)


def _accepted_ids(raw: list) -> tuple[str, ...] | None:
    """The ids of a section in which every entry is an object of two keys,
    one of them ``"id"``, and every id is valid and used once; None
    otherwise."""
    if set(map(type, raw)) != {dict} or set(map(len, raw)) != {2}:
        return None
    try:
        ids = tuple(map(itemgetter("id"), raw))
        joined = "".join(ids)  # TypeError unless every id is a string
    except (KeyError, TypeError):
        return None
    if not all(ids) or not _token_text(joined) or len(set(ids)) != len(ids):
        return None
    return ids


def _accepted_masks(lists: list, known) -> tuple[tuple[int, ...], list[int]] | None:
    """``(masks, counts)`` of objective lists that are all valid, non-empty
    arrays of declared objectives with no repeat; counts are the lists'
    lengths.  None otherwise.  Each mask is the C-level sum of its tokens'
    bits, so the tokens are distinct exactly when it has as many set bits
    as the list has tokens, since a repeated bit carries."""
    if set(map(type, lists)) != {list} or not all(lists):
        return None
    try:
        # an unknown token gives None, which sum() refuses like an unhashable one
        masks = tuple(map(sum, map(map, repeat(known.get), lists)))
    except TypeError:
        return None
    counts = list(map(len, lists))
    if list(map(int.bit_count, masks)) != counts:
        return None
    return masks, counts


def _column(raw: list, key: str) -> list | None:
    """``entry[key]`` of every entry of ``raw``, or None when some entry has
    no ``key``."""
    try:
        return list(map(itemgetter(key), raw))
    except KeyError:
        return None


def _accept_alternatives(raw: list, known
                         ) -> tuple[tuple[str, ...], tuple[int, ...]] | None:
    """The ``(ids, masks)`` columns of an alternatives section in which every
    entry is exactly ``{"id": ..., "offers": [...]}``, with a valid id not
    used before and a valid list, checked in C-level passes over the whole
    section.  None when any check fails: the located pass then words every
    finding."""
    ids = _accepted_ids(raw)
    if ids is None:
        return None
    lists = _column(raw, "offers")
    accepted = None if lists is None else _accepted_masks(lists, known)
    return None if accepted is None else (ids, accepted[0])


def _accept_individuals(raw: list, known) -> tuple | None:
    """The ``(ids, masks, weights, scales)`` columns of an individuals
    section that the located pass would accept without a finding, checked
    in C-level passes: a section in which every entry is ``{"id",
    "requires"}``, accepted as alternatives are, or one in which every entry
    is ``{"id", "membership"}``, accepted by ``_accept_memberships``.  None
    for any other section, one that mixes the two kinds included."""
    ids = _accepted_ids(raw)
    if ids is None:
        return None
    lists = _column(raw, "requires")
    if lists is not None:
        accepted = _accepted_masks(lists, known)
        return None if accepted is None else (ids, *_crisp_individuals(*accepted))
    memberships = _column(raw, "membership")
    rows = None if memberships is None else _accept_memberships(memberships, known)
    return None if rows is None else (ids, *zip(*rows))


def _accept_memberships(memberships: list, known
                        ) -> list[tuple[int, tuple[int, ...], int]] | None:
    """The ``(mask, weights, scale)`` row, ``_scaled``, of each membership
    when every one is a non-empty object of declared objectives whose
    values are all weights in (0, 1], read as ratios; None otherwise, a
    zero included, so that the located pass drops it."""
    if set(map(type, memberships)) != {dict} or not all(memberships):
        return None
    if set(map(type, chain.from_iterable(map(dict.values, memberships)))) != {tuple}:
        return None
    try:
        return [_scaled(dict(zip(map(known.__getitem__, m), m.values())))
                for m in memberships]
    except KeyError:  # an undeclared objective
        return None


#: Entries per chunk of a section that whole-section acceptance refused: each
#: chunk is tried on its own, so one bad entry costs the located pass over
#: at most this many entries.
_CHUNK = 256


def _section(raw: list, accept, located, known, findings,
             section: str, what: str, allowed: tuple[str, ...]) -> tuple:
    """The columns of the valid entries of a section, in section order; ``()``
    when none is valid.

    ``accept(raw, known)`` returns the columns, ids first, of a part that
    it accepts whole, else None.  The whole section is tried first, then,
    if it is refused, each chunk of ``_CHUNK`` entries in order; an
    accepted chunk counts only when its ids are disjoint from every id seen
    before it.  Any other chunk goes through ``_entries`` with the ids seen
    so far, and each of its entries through ``located(loc, entry, id,
    known, findings)``, which returns the entry's row or None.  The parts'
    columns are joined once at the end."""
    accepted = accept(raw, known)
    if accepted is not None:
        return accepted
    parts = []
    seen: set[str] = set()
    for start in range(0, len(raw), _CHUNK):
        chunk = raw[start:start + _CHUNK]
        accepted = accept(chunk, known)
        if accepted is not None and seen.isdisjoint(accepted[0]):
            seen.update(accepted[0])
            parts.append(accepted)
            continue
        rows = [row for loc, entry, entry_id in _entries(
                    chunk, start, seen, section, what, allowed, findings)
                if (row := located(loc, entry, entry_id, known, findings))]
        if rows:
            parts.append(tuple(zip(*rows)))
    return tuple(map(tuple, map(chain.from_iterable, zip(*parts))))


def _crisp_individuals(masks, counts):
    """The ``(masks, weights, scales)`` columns of accepted crisp
    individuals: every weight is 1, so individuals of one support size
    share one row."""
    units = {count: (1,) * count for count in set(counts)}
    return masks, tuple(map(units.__getitem__, counts)), (1,) * len(masks)


def _located_individual(loc, entry, ind_id, known, findings
                        ) -> tuple[str, int, tuple[int, ...], int] | None:
    """The ``(id, mask, weights, scale)`` row of one individual, or None
    after its findings."""
    if ("membership" in entry) == ("requires" in entry):
        _err(findings, loc,
             "exactly one of 'membership' or 'requires' must be given")
        return None
    if "requires" in entry:
        mask = _objective_list(
            entry, "requires", loc,
            "empty support: individual requires no objectives", known, findings)
        return None if mask is None else (ind_id, mask, (1,) * mask.bit_count(), 1)
    scaled = _validate_membership(entry["membership"], f"{loc}.membership",
                                  known, findings)
    return None if scaled is None else (ind_id, *scaled)


def _validate_individuals(doc, known, findings
                          ) -> tuple[tuple[str, ...], tuple[int, ...],
                                     tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The ``(ids, masks, weights, scales)`` columns of the valid
    individuals, each weight row and scale ``_scaled``."""
    raw = _top_array(doc, "individuals", "'individuals' must be an array",
                     "society must contain at least one individual", findings)
    return _section(raw, _accept_individuals, _located_individual, known,
                    findings, "individuals", "individual",
                    ("id", "membership", "requires")) or ((), (), (), ())


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
    """The scenario of ``text`` (None if any finding is an error) and its
    report.  The cyclic garbage collector is paused for the whole parse:
    the parse builds no reference cycles, so reference counting frees
    everything a collection would, and ``json.loads`` and the section passes
    no longer trigger full traversals of the growing document and of every
    other live container.  The collector is enabled again on every exit,
    an exception included, but only if it was enabled on entry, so a caller
    that turned it off keeps it off.  Its state is process-wide: if two
    threads parse at once, one may enable it while the other still parses,
    which only loses the saving."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        findings: list[Finding] = []
        if text.startswith("\ufeff"):
            _err(findings, "$", "invalid JSON: file starts with a byte-order mark "
                                "(U+FEFF)")
            return None, ValidationReport(tuple(findings))
        try:
            doc = _load(text)
        except _DuplicateKey as exc:
            _err(findings, "$", f"duplicate key {_shown(exc.key)}")
            return None, ValidationReport(tuple(findings))
        except ValueError as exc:
            _err(findings, "$", f"invalid JSON: {exc}")
            return None, ValidationReport(tuple(findings))
        except RecursionError:
            _err(findings, "$", "invalid JSON: arrays or objects nested too deeply")
            return None, ValidationReport(tuple(findings))

        if not isinstance(doc, dict):
            _err(findings, "$", "scenario must be a JSON object")
            return None, ValidationReport(tuple(findings))

        _warn_unknown_keys(findings, doc, ("universe", "alternatives", "individuals"))
        declared = _validate_universe(doc, findings)
        known = token_bits(declared)
        alternatives = _validate_alternatives(doc, known, findings)
        individuals = _validate_individuals(doc, known, findings)

        if any(f.severity == ERROR for f in findings):
            return None, ValidationReport(tuple(findings))

        universe = Universe._of(tuple(declared), _bits=known)
        scenario = Scenario(Environment._of(universe, *alternatives),
                            Society._of(universe, *individuals))
        return scenario, ValidationReport(tuple(findings))
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# number rendering


def format_decimal(value, digits: int = DEFAULT_PRECISION) -> str:
    """Exact fixed-point rendering of a rational (round half to even).

    A float is read as the decimal literal it prints as (``2.675`` means
    2675/1000, not its binary expansion), as ``measures.to_fraction``
    reads it; a bool is not a number."""
    if isinstance(value, bool):
        raise TypeError("decimal values are numbers")
    f = Fraction(repr(value) if isinstance(value, float) else value)
    return format_ratio(f.numerator, f.denominator, digits)


def format_utility(value, precision: int = DEFAULT_PRECISION) -> str:
    """Counts render as integers, everything else as fixed-point decimal."""
    if isinstance(value, bool):
        raise TypeError("utility values are numbers")
    if isinstance(value, int):
        return str(value)
    return format_decimal(value, precision)


def _profile_cells(profile: IndividualProfile, precision: int) -> list[str]:
    """One profile's rendered utilities, formatted from its integer row."""
    if profile.integral:
        return [str(num) for num in profile.nums]
    return format_ratios(profile.nums, profile.den, precision)


# ---------------------------------------------------------------------------
# pipeline


class PipelineResult(Record):
    scenario: Scenario
    opportunity: ObjectiveSet
    exigence: ObjectiveSet
    partition: UniversePartition
    process: EvaluationProcess
    social: SocialProfile
    ranking: Ranking


def compute_pipeline(scenario: Scenario,
                     measure: UtilityMeasure | str) -> PipelineResult:
    """Run universes, profiles, the social mean, and ranking."""
    process = build_process(measure, scenario.environment, scenario.society)
    social = evaluate(process)
    return PipelineResult(
        scenario=scenario,
        opportunity=opportunity_universe(scenario.environment),
        exigence=exigence_universe(scenario.society),
        partition=partition_universe(scenario.environment, scenario.society),
        process=process,
        social=social,
        ranking=rank(social, scenario.environment),
    )


def run_pipeline(scenario: Scenario, measure: UtilityMeasure | str,
                 output_format: str = "table",
                 precision: int = DEFAULT_PRECISION) -> str:
    """End-to-end evaluation rendered as a full report."""
    result = compute_pipeline(scenario, measure)
    return render_report(result, output_format, precision)


# ---------------------------------------------------------------------------
# renderers


def _check_format(output_format: str) -> None:
    if output_format not in FORMATS:
        raise ScenarioError(f"unknown format '{output_format}' "
                            f"(known: {', '.join(FORMATS)})")


def _json_value(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it when it starts
    at ``indent``: a dict with str keys, a list, a str, a bool or an int.
    A dict whose values are all strings, as a profile's, is joined in one
    comprehension."""
    if type(value) is bool:
        return "true" if value else "false"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        if set(map(type, value.values())) == {str}:
            items = [f"{_json_string(key)}: {_json_string(item)}"
                     for key, item in value.items()]
        else:
            items = [f"{_json_string(key)}: {_json_value(item, inner)}"
                     for key, item in value.items()]
        brackets = "{}"
    elif isinstance(value, list):
        if not value:
            return "[]"
        items = [_json_value(item, inner) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"{type(value).__name__} is not a report payload type")
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{indent}{brackets[1]}")


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte."""
    return _json_value(payload, "") + "\n"


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer(lineterminator="\\n")`` writes a field by its
    default ``QUOTE_MINIMAL`` rule: between ``"`` marks, each inner ``"``
    doubled, when it holds a comma, a ``"`` or a newline; unchanged
    otherwise.  An id is a token, so it can hold only the first two."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _columns(rows: list[tuple[str, ...]]) -> list[str]:
    if not rows:
        return []
    widths = list(map(max, map(map, repeat(len), zip(*rows))))
    return ["  ".join(map(str.ljust, row, widths)).rstrip() for row in rows]


def render_validation(report: ValidationReport, output_format: str = "table") -> str:
    _check_format(output_format)
    rows = [(f.severity, f.location, f.message) for f in report.findings]
    if output_format == "json":
        return _json_text({
            "ok": report.ok,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "findings": [
                {"severity": severity, "location": location, "message": message}
                for severity, location, message in rows
            ],
        })
    if output_format == "csv":
        # a message can hold anything, so every field goes through the rule
        return "severity,location,message\n" + "".join(
            [",".join(map(_csv_field, row)) + "\n" for row in rows])
    lines = []
    if report.ok:
        lines.append("OK: scenario is valid"
                     + (f" ({len(report.warnings)} warning(s))"
                        if report.warnings else ""))
    else:
        lines.append(f"INVALID: {len(report.errors)} error(s), "
                     f"{len(report.warnings)} warning(s)")
    lines.extend(_columns(rows))
    return "\n".join(lines) + "\n"


# Each report section is built once as its json payload; the csv lines and
# table lines of a section are projections of that payload.  A csv line ends
# in a newline.  Values and tiers are digit strings and need no quoting; each
# id is quoted by ``_csv_field`` once per report, through a map of id to field.


def _universes_section(universe: Universe, opportunity: ObjectiveSet,
                       exigence: ObjectiveSet, partition: UniversePartition):
    return {
        "universe": list(universe.objectives),
        "opportunity_universe": list(opportunity.ordered()),
        "exigence_universe": list(exigence.ordered()),
        "partition": {
            "offered_only": list(partition.offered_only.ordered()),
            "requested_only": list(partition.requested_only.ordered()),
            "matched": list(partition.matched.ordered()),
        },
    }


def _universes_lines(section) -> list[str]:
    def line(label, members):
        return f"{label} ({len(members)}): {' '.join(members) or '(none)'}"

    parts = section["partition"]
    return [line("universe", section["universe"]),
            line("opportunity universe", section["opportunity_universe"]),
            line("exigence universe", section["exigence_universe"]),
            "partition:",
            line("  offered only", parts["offered_only"]),
            line("  requested only", parts["requested_only"]),
            line("  matched", parts["matched"])]


def _profiles_section(profiles, alt_ids, precision: int):
    return [{"individual": p.individual_id,
             "values": dict(zip(alt_ids, _profile_cells(p, precision)))}
            for p in profiles]


def _profiles_csv(section, quoted: dict[str, str], head: str,
                  tail: str) -> list[str]:
    """``{head}individual,alternative,value{tail}`` per cell; ``quoted``
    maps each alternative id, in order, to its csv field."""
    alts = [f",{alt}," for alt in quoted.values()]
    lines = []
    for p in section:
        start = head + _csv_field(p["individual"])
        lines += [f"{start}{alt}{value}{tail}"
                  for alt, value in zip(alts, p["values"].values())]
    return lines


def _profiles_lines(section, alt_ids) -> list[str]:
    return _columns([("individual", *alt_ids)]
                    + [(p["individual"], *p["values"].values()) for p in section])


def _ranking_section(result: PipelineResult, precision: int):
    """The tiers of ``result.ranking``: their utilities are formatted in
    one ``format_ratios`` call over the lcm of their denominators."""
    tiers = result.ranking.tiers
    ratios = [tier._ratio for tier in tiers]
    den = lcm(*{d for _, d in ratios})
    utilities = format_ratios([n * (den // d) for n, d in ratios], den,
                              precision)
    return [{"tier": i, "utility": utility, "alternatives": list(tier.ids)}
            for i, (tier, utility) in enumerate(zip(tiers, utilities),
                                                start=1)]


def _ranking_csv(section, quoted: dict[str, str], line: str) -> list[str]:
    """``line`` per ranked alternative, its ``{tier}``, ``{utility}`` and
    ``{alt}`` filled in; ``quoted`` maps each id to its csv field."""
    return [line.format(tier=tier["tier"], utility=tier["utility"],
                        alt=quoted[alt_id])
            for tier in section for alt_id in tier["alternatives"]]


def _ranking_lines(section) -> list[str]:
    return _columns([("tier", "utility", "alternatives")]
                    + [(str(tier["tier"]), tier["utility"],
                        " ".join(tier["alternatives"])) for tier in section])


def render_universes(scenario: Scenario, output_format: str = "table") -> str:
    _check_format(output_format)
    section = _universes_section(
        scenario.universe, opportunity_universe(scenario.environment),
        exigence_universe(scenario.society),
        partition_universe(scenario.environment, scenario.society))
    if output_format == "json":
        return _json_text(section)
    if output_format == "csv":
        quoted = {token: _csv_field(token) for token in section["universe"]}
        lines = [f"{name},{quoted[token]}\n"
                 for name, key in (("universe", "universe"),
                                   ("opportunity", "opportunity_universe"),
                                   ("exigence", "exigence_universe"))
                 for token in section[key]]
        lines += [f"partition.{part},{quoted[token]}\n"
                  for part, members in section["partition"].items()
                  for token in members]
        return "set,objective\n" + "".join(lines)
    return "\n".join(_universes_lines(section)) + "\n"


def render_utilities(scenario: Scenario, measure: UtilityMeasure | str,
                     output_format: str = "table",
                     precision: int = DEFAULT_PRECISION) -> str:
    _check_format(output_format)
    process = build_process(measure, scenario.environment, scenario.society)
    alt_ids = scenario.environment.ids
    section = _profiles_section(process.profiles, alt_ids, precision)
    if output_format == "json":
        return _json_text({"measure": process.measure.value,
                           "precision": precision, "utilities": section})
    if output_format == "csv":
        quoted = {alt_id: _csv_field(alt_id) for alt_id in alt_ids}
        return "individual,alternative,value\n" + "".join(
            _profiles_csv(section, quoted, "", "\n"))
    lines = [f"utilities (measure={process.measure.value})",
             *_profiles_lines(section, alt_ids)]
    return "\n".join(lines) + "\n"


def render_ranking(result: PipelineResult, output_format: str = "table",
                   precision: int = DEFAULT_PRECISION) -> str:
    _check_format(output_format)
    section = _ranking_section(result, precision)
    if output_format == "json":
        return _json_text({"measure": result.process.measure.value,
                           "aggregator": "mean",
                           "precision": precision, "ranking": section})
    if output_format == "csv":
        quoted = {alt_id: _csv_field(alt_id)
                  for alt_id in result.scenario.environment.ids}
        return "tier,value,alternative\n" + "".join(
            _ranking_csv(section, quoted, "{tier},{utility},{alt}\n"))
    lines = [f"ranking (measure={result.process.measure.value}, "
             "aggregator=mean)", *_ranking_lines(section)]
    return "\n".join(lines) + "\n"


def render_report(result: PipelineResult, output_format: str = "table",
                  precision: int = DEFAULT_PRECISION) -> str:
    _check_format(output_format)
    scenario = result.scenario
    alt_ids = scenario.environment.ids
    profiles = _profiles_section(result.process.profiles, alt_ids, precision)
    social = {"values": dict(zip(alt_ids, format_ratios(
                  result.social.nums, result.social.den, precision))),
              "out_of_domain": result.social.out_of_domain}
    ranking = _ranking_section(result, precision)
    if output_format == "csv":
        quoted = {alt_id: _csv_field(alt_id) for alt_id in alt_ids}
        lines = _profiles_csv(profiles, quoted, "profile,", ",\n")
        lines += [f"social,,{alt},{value},\n"
                  for alt, value in zip(quoted.values(),
                                        social["values"].values())]
        lines += _ranking_csv(ranking, quoted, "rank,,{alt},{utility},{tier}\n")
        return "section,individual,alternative,value,tier\n" + "".join(lines)
    universes = _universes_section(scenario.universe, result.opportunity,
                                   result.exigence, result.partition)
    if output_format == "json":
        return _json_text({"measure": result.process.measure.value,
                           "aggregator": "mean",
                           "precision": precision, **universes,
                           "profiles": profiles, "social_profile": social,
                           "ranking": ranking})
    lines = [
        f"scenario: {len(scenario.universe)} objectives, "
        f"{len(scenario.environment)} alternatives, "
        f"{len(scenario.society)} individuals",
        f"measure: {result.process.measure.value}, aggregator: mean",
        "",
        *_universes_lines(universes),
        "",
        "individual profiles:",
        *_profiles_lines(profiles, alt_ids),
        "",
        "social profile (mean):",
        *_columns([("alternative", "utility"), *social["values"].items()]),
    ]
    if social["out_of_domain"]:
        lines.append("note: utilities fall outside [0, 1]; the aggregator "
                     "domain assumes the unit interval")
    lines += ["", "ranking:", *_ranking_lines(ranking)]
    return "\n".join(lines) + "\n"
