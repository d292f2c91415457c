import csv
import gc
import importlib.util
import inspect
import io
import json
import random
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setchoice import (
    Alternative,
    Environment,
    Individual,
    ObjectiveSet,
    PipelineResult,
    Ranking,
    RankingTier,
    Scenario,
    ScenarioError,
    Society,
    Universe,
    UtilityMeasure,
    ValidationReport,
    build_process,
    format_decimal,
    format_utility,
    fuzzy_utility,
    individual_profile,
    parse_scenario,
    run_pipeline,
    scenario_io,
    utility,
    validate_scenario,
)
from setchoice._core.encode import encode
from setchoice.cli import main
from setchoice.measures import _scaled
from setchoice.scenario_io import (
    ERROR,
    FORMATS,
    WARNING,
    Finding,
    _accept_alternatives,
    _json_text,
    _load,
    _parse,
    _ranking_section,
    compute_pipeline,
    format_ratio,
    format_ratios,
    render_ranking,
    render_report,
    render_universes,
    render_utilities,
    render_validation,
)
from setchoice import measures as measures_module
from setchoice import universe as universe_module
from setchoice.universe import token_bits

from _gen import (distinct_weights_document, one_objective_document,
                  reference_format_decimal)
from _golden import EXPECTED_LOCATIONS, INVALID_DIR, ROOT

MINIMAL = '{"universe": ["a"], "alternatives": [{"id": "x", "offers": ["a"]}],' \
          ' "individuals": [{"id": "p", "requires": ["a"]}]}'


def bundled(name: str) -> str:
    return (ROOT / "scenarios" / name).read_text(encoding="utf-8")


def generated_document(seed: int, objectives: int = 32, alternatives: int = 4,
                       individuals: int = 400) -> str:
    """A tall scenario in the style of the pipeline benchmark: crisp
    ``requires`` lists and decimal ``membership`` maps with spelled-out
    zeros and exponent literals."""
    rng = random.Random(seed)
    universe = [f"o{i:03d}" for i in range(objectives)]

    def subset():
        return rng.sample(universe, rng.randint(1, objectives // 2))

    alts = [{"id": f"a{j}", "offers": subset()} for j in range(alternatives)]
    lines = []
    for i in range(individuals):
        if i % 2:
            lines.append(json.dumps({"id": f"p{i}", "requires": subset()}))
            continue
        weights = {t: rng.choice(("0", "0.25", "5e-1", "0.1", "75E-2"))
                   for t in subset()}
        weights[rng.choice(universe)] = "1"
        body = ", ".join(f'"{t}": {w}' for t, w in weights.items())
        lines.append(f'{{"id": "p{i}", "membership": {{{body}}}}}')
    return (f'{{"universe": {json.dumps(universe)}, '
            f'"alternatives": {json.dumps(alts)}, '
            f'"individuals": [{", ".join(lines)}]}}')


class TestParse:
    def test_minimal_scenario(self):
        scenario = parse_scenario(MINIMAL)
        assert isinstance(scenario, Scenario)
        assert len(scenario.universe) == 1
        assert len(scenario.environment) == 1
        assert len(scenario.society) == 1

    def test_numbers_parse_exactly(self):
        scenario = parse_scenario(bundled("weighted_split.json"))
        ind = scenario.society.individuals[0]
        assert ind.mu("a") == Fraction(2, 5)
        assert ind.mu("d") == Fraction(1, 10)
        assert not isinstance(ind.mu("a"), float)

    def test_scientific_notation(self):
        text = MINIMAL.replace('{"id": "p", "requires": ["a"]}',
                               '{"id": "p", "membership": {"a": 25e-2}}')
        scenario = parse_scenario(text)
        assert scenario.society.individuals[0].mu("a") == Fraction(1, 4)

    def test_requires_shorthand_equals_unit_membership(self):
        via_requires = parse_scenario(MINIMAL)
        via_membership = parse_scenario(MINIMAL.replace(
            '"requires": ["a"]', '"membership": {"a": 1}'))
        assert (via_requires.society.individuals[0]
                == via_membership.society.individuals[0])

    def test_scenario_rejects_parts_of_another_universe(self):
        scenario = parse_scenario(MINIMAL)
        other = parse_scenario(MINIMAL.replace('["a"]', '["b"]'))
        with pytest.raises(ScenarioError) as exc:
            Scenario(other.environment, scenario.society)
        assert str(exc.value) == "environment and society use different universes"
        with pytest.raises(ScenarioError) as exc:
            Scenario(scenario.environment, other.society)
        assert str(exc.value) == "environment and society use different universes"

    def test_the_universe_is_the_one_the_members_hold(self):
        scenario = parse_scenario(MINIMAL)
        assert Scenario._fields == ("environment", "society")
        assert scenario.universe is scenario.environment.universe
        assert scenario.universe is scenario.society.universe

    def test_no_function_takes_the_universe_beside_its_holders(self):
        assert {function.__name__: tuple(inspect.signature(function).parameters)
                for function in (build_process, individual_profile, utility,
                                 fuzzy_utility, encode)} == {
            "build_process": ("measure", "environment", "society"),
            "individual_profile": ("measure", "environment", "individual"),
            "utility": ("measure", "alternative", "individual"),
            "fuzzy_utility": ("alternative", "individual"),
            "encode": ("environment", "society"),
        }

    @pytest.mark.parametrize("owner, name", [
        (Universe, "size"), (Environment, "size"), (Society, "size"),
        (Scenario, "objective_count"), (Scenario, "alternative_count"),
        (Scenario, "individual_count")])
    def test_sizes_are_read_by_len_alone(self, owner, name):
        assert not hasattr(owner, name)

    def test_warnings_do_not_block_parsing(self):
        text = MINIMAL.replace('"universe"', '"note": "hi", "universe"')
        scenario = parse_scenario(text)
        assert isinstance(scenario, Scenario)
        report = validate_scenario(text)
        assert report.ok
        assert [f.message for f in report.warnings] == ["unknown key 'note'"]

    @pytest.mark.parametrize("key", ["universe", "alternatives", "individuals"])
    def test_missing_top_level_key_is_located_at_the_key(self, key):
        doc = json.loads(MINIMAL)
        del doc[key]
        report = parse_scenario(json.dumps(doc))
        expected = [("error", key, f"missing required key '{key}'")]
        if key == "universe":  # no objective is declared
            expected += [
                ("error", "alternatives[0].offers[0]", "unknown objective 'a'"),
                ("error", "individuals[0].requires[0]", "unknown objective 'a'")]
        assert isinstance(report, ValidationReport)
        assert [(f.severity, f.location, f.message)
                for f in report.findings] == expected

    def test_duplicate_json_key_is_an_error(self):
        text = '{"universe": ["a"], "universe": ["b"],' \
               ' "alternatives": [], "individuals": []}'
        report = parse_scenario(text)
        assert isinstance(report, ValidationReport)
        assert "duplicate key" in report.errors[0].message

    @pytest.mark.parametrize("text,key", [
        ('{"a": 1, "b": 2, "b": 3, "a": 4}', "b"),
        (MINIMAL.replace('"id": "x", "offers": ["a"]',
                         '"id": "x", "offers": ["a"], "id": "y"'), "id"),
        ('{"universe": ["a"], "universe": {"k": 1, "k": 2}}', "k"),
        (MINIMAL.replace('"requires": ["a"]',
                         '"membership": {"a": 0.5, "a": 1}'), "a"),
        ('{"universe": ["a"], "extra": {"k": 1, "k": 2}}', "k"),
        (MINIMAL.replace('"offers": ["a"]', '"offers": [{"k": 1, "k": 2}]'), "k"),
        (MINIMAL.replace('"requires": ["a"]',
                         '"membership": {"a:b": 1, "a\\u003ab": 0.5}'), "a:b"),
        ('{"universe" :\n["a"],\t"universe"\n:\n["b"]}', "universe"),
        ('[{"a": 1, "a": 2}]', "a"),
        ('[{"a": 1, "a": 2}, x]', "a"),
        ('[{"a": 1, "a": 2}, 1e99999]', "a"),
    ], ids=["first-repeat", "nested", "inner-first", "membership",
            "unknown-key", "in-offers", "escaped-colon", "whitespace",
            "top-level-list", "then-syntax-error", "then-past-the-bound"])
    def test_duplicate_key_named_is_the_first_repeat(self, text, key):
        assert [(f.severity, f.location, f.message)
                for f in validate_scenario(text).findings] == [
            ("error", "$", f"duplicate key '{key}'")]

    @pytest.mark.parametrize("location,old,new", [
        ("alternatives[0].offers", '"offers": ["a"]', '"offers": ["zz", "a", "a"]'),
        ("individuals[0].requires", '"requires": ["a"]',
         '"requires": ["zz", "a", "a"]'),
    ], ids=["offers", "requires"])
    def test_repeats_warned_after_an_invalid_token(self, location, old, new):
        report = validate_scenario(MINIMAL.replace(old, new))
        assert [(f.severity, f.location, f.message) for f in report.findings] == [
            ("error", f"{location}[0]", "unknown objective 'zz'"),
            ("warning", f"{location}[2]", "objective 'a' listed twice"),
        ]

    @pytest.mark.parametrize("literal", ["1e1001", "1E-1001", "0." + "0" * 999 + "1",
                                         "9" * 600 + "." + "0" * 400 + "e1000"])
    def test_number_literal_beyond_the_bound_is_invalid_json(self, literal):
        text = MINIMAL.replace('"requires": ["a"]', f'"membership": {{"a": {literal}}}')
        report = parse_scenario(text)
        assert isinstance(report, ValidationReport)
        assert [(f.location, f.message[:13]) for f in report.errors] == [
            ("$", "invalid JSON:")]

    def test_number_literal_at_the_bound_is_exact(self):
        text = MINIMAL.replace('"requires": ["a"]', '"membership": {"a": 1e-1000}')
        assert parse_scenario(text).society.individuals[0].mu("a") \
            == Fraction(1, 10 ** 1000)

    def test_integer_literal_beyond_the_bound_is_invalid_json(self):
        text = MINIMAL.replace('"requires": ["a"]',
                               '"membership": {"a": 1' + "0" * 4000 + "}")
        assert [(f.location, f.message) for f in validate_scenario(text).errors] == [
            ("$", "invalid JSON: number literal longer than 1000 characters "
                  "or with |exponent| > 1000")]

    def test_integer_literal_at_the_bound_is_a_located_range_error(self):
        text = MINIMAL.replace('"requires": ["a"]',
                               '"membership": {"a": 1' + "0" * 999 + "}")
        assert [f.location for f in validate_scenario(text).errors] == [
            "individuals[0].membership.a"]

    @pytest.mark.parametrize("literal,shown", [
        ("999999999999999999999", "999999999999999999999"),
        ("1e21", "1.00000e+21"),
        ("-1234567.89e20", "-1.23456e+26"),
        ("1e999", "1.00000e+999"),
        ("2.5", "2.5"),
    ])
    def test_out_of_range_value_is_quoted_briefly(self, literal, shown):
        text = MINIMAL.replace('"requires": ["a"]', f'"membership": {{"a": {literal}}}')
        assert [f.message for f in validate_scenario(text).errors] == [
            f"membership out of range: {shown} is not in [0, 1]"]

    @pytest.mark.parametrize("literal,kind", [
        ("1.5", "number"), ("7", "number"), ('["a"]', "array"),
        ('{"a": 1}', "object"), ("true", "boolean"), ("null", "null")])
    @pytest.mark.parametrize("location,old,new,what", [
        ("universe[1]", '"universe": ["a"]', '"universe": ["a", {}]',
         "objective name"),
        ("alternatives[0].id", '"id": "x"', '"id": {}', "alternative id"),
        ("individuals[0].id", '"id": "p"', '"id": {}', "individual id"),
    ], ids=["universe", "alternative", "individual"])
    def test_non_string_token_finding_names_its_json_kind(
            self, location, old, new, what, literal, kind):
        report = validate_scenario(MINIMAL.replace(old, new.format(literal)))
        assert [(f.location, f.message) for f in report.errors] == [
            (location, f"{what} must be a string, got {kind}")]

    @pytest.mark.parametrize("text", ["0.35", "3.5e-1", "1E+0", "1.000", "-0.0",
                                      "0.0", "1e-1000"])
    def test_weight_spellings_store_the_exact_rational(self, text):
        scenario = parse_scenario(
            '{"universe": ["a", "b"], '
            '"alternatives": [{"id": "x", "offers": ["a"]}], '
            f'"individuals": [{{"id": "p", "membership": {{"a": {text}, "b": 1}}}}]}}')
        individual = scenario.society.individuals[0]
        assert individual.mu("a") == Fraction(text)
        weights = {1: Fraction(text), 2: Fraction(1)}
        assert (individual._mask, individual._weights, individual._scale) == (
            _scaled({bit: w.as_integer_ratio() for bit, w in weights.items() if w}))

    @pytest.mark.parametrize("text", ["[" * 50000, '{"a": ' * 50000,
                                      '{"universe": ' + "[{}, " * 50000])
    def test_deep_nesting_is_one_finding_for_authors(self, text):
        report = parse_scenario(text)
        assert report.findings == (Finding(
            ERROR, "$", "invalid JSON: arrays or objects nested too deeply"),)

    def test_non_finite_numbers_rejected(self):
        text = MINIMAL.replace('{"id": "p", "requires": ["a"]}',
                               '{"id": "p", "membership": {"a": NaN}}')
        report = parse_scenario(text)
        assert isinstance(report, ValidationReport)
        assert not report.ok


def tall_crisp_document(seed: int, individuals: int = 2000) -> str:
    """A crisp scenario of the benchmark's intake shape: 32 objectives,
    4 alternatives and ``individuals`` ``requires`` entries."""
    rng = random.Random(seed)
    universe = [f"o{i:03d}" for i in range(32)]

    def subset():
        return rng.sample(universe, rng.randint(1, 16))

    return json.dumps({
        "universe": universe,
        "alternatives": [{"id": f"a{j}", "offers": subset()} for j in range(4)],
        "individuals": [{"id": f"p{i}", "requires": subset()}
                        for i in range(individuals)]})


class TestValidateOnce:
    """The parser is the only validator of a file: it builds individuals
    from its checked weights without running ``Individual.__init__``, and
    the pipeline reads the society's and the environment's columns."""

    def test_pipeline_builds_no_individual_and_no_alternative(self, monkeypatch):
        texts = [path.read_text(encoding="utf-8")
                 for path in sorted((ROOT / "scenarios").glob("*.json"))]
        texts.append(tall_crisp_document(3))

        def refuse(*args, **kwargs):
            raise AssertionError("an Individual or an Alternative was built")

        # __new__ is left alone: CPython does not restore an inherited
        # __new__ once it has been patched on the class
        monkeypatch.setattr(Individual, "__init__", refuse)
        monkeypatch.setattr(Individual, "_of", refuse)
        monkeypatch.setattr(Alternative, "__init__", refuse)
        monkeypatch.setattr(Alternative, "_of", refuse)
        ran = 0
        for text in texts:
            scenario = parse_scenario(text)
            assert isinstance(scenario, Scenario)
            crisp = set(scenario.society.scales) == {1}
            for measure in UtilityMeasure if crisp else [UtilityMeasure.FUZZY]:
                result = compute_pipeline(scenario, measure)
                for fmt in FORMATS:
                    render_ranking(result, fmt)
                    render_report(result, fmt)
                    render_universes(scenario, fmt)
                ran += 1
        assert ran == 1 + 3 * (len(texts) - 1)

    @pytest.mark.parametrize("name", ["crisp_pair.json", "partial_overlap.json",
                                      "weighted_split.json"])
    def test_each_declared_objective_is_checked_once(self, name, monkeypatch):
        checked = []
        for module in (scenario_io, universe_module):
            def counted(token, what="objective name", check=module.check_token):
                checked.append(token)
                return check(token, what)
            monkeypatch.setattr(module, "check_token", counted)
        scenario = parse_scenario(bundled(name))
        assert isinstance(scenario, Scenario)
        assert checked == list(scenario.universe.objectives)

    def test_parse_and_read_run_no_checking_constructor(self, monkeypatch):
        texts = [path.read_text(encoding="utf-8")
                 for path in sorted((ROOT / "scenarios").glob("*.json"))]
        texts.append(generated_document(3))

        def refuse(*args, **kwargs):
            raise AssertionError("a checking constructor ran")

        monkeypatch.setattr(Individual, "__init__", refuse)
        scenarios = [parse_scenario(text) for text in texts]
        # the members are read back from the checked columns, unchecked
        for module in (scenario_io, universe_module, measures_module):
            monkeypatch.setattr(module, "check_token", refuse)
        monkeypatch.setattr(ObjectiveSet, "__post_init__", refuse)
        members = [(scenario.environment.alternatives,
                    scenario.society.individuals) for scenario in scenarios]
        monkeypatch.undo()
        for text, scenario, (alternatives, individuals) in zip(texts, scenarios,
                                                               members):
            assert isinstance(scenario, Scenario)
            document = json.loads(text, parse_float=Fraction)
            universe = scenario.universe
            assert alternatives == tuple(
                Alternative(e["id"], universe.subset(e["offers"]))
                for e in document["alternatives"])
            assert individuals == tuple(
                Individual(e["id"], universe,
                           e.get("membership") or dict.fromkeys(e["requires"], 1))
                for e in document["individuals"])

    def test_spelled_out_zero_weight_is_dropped(self, tmp_path, capsys):
        universe = '{"universe": ["a", "b"], ' \
                   '"alternatives": [{"id": "x", "offers": ["a"]}, ' \
                   '{"id": "y", "offers": ["b"]}], "individuals": '
        zero = universe + '[{"id": "p", "membership": {"a": 0, "b": 1}}]}'
        crisp = universe + '[{"id": "p", "requires": ["b"]}]}'
        individual = parse_scenario(zero).society.individuals[0]
        assert individual.is_crisp
        assert individual.support == frozenset({"b"})
        assert individual == parse_scenario(crisp).society.individuals[0]
        outputs = []
        for name, text in (("zero.json", zero), ("crisp.json", crisp)):
            (tmp_path / name).write_text(text, encoding="utf-8")
            assert main(["rank", str(tmp_path / name),
                         "--measure", "normalized"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "tier" in outputs[0]


#: Membership weights as JSON numbers; the parser and ``Individual`` read
#: each as the decimal literal it prints as.
WEIGHTS = st.sampled_from([0, 1, 0.1, 0.25, 0.5, 0.75, 0.333])


@st.composite
def scenario_documents(draw):
    """A valid scenario as a dict: crisp and weighted individuals, some
    with spelled-out zero weights, over a universe of one to six."""
    universe = [f"o{i}" for i in range(draw(st.integers(1, 6)))]
    members = st.lists(st.sampled_from(universe), min_size=1, max_size=6,
                       unique=True)
    individuals = []
    for i in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            individuals.append({"id": f"p{i}", "requires": draw(members)})
            continue
        weights = draw(st.dictionaries(st.sampled_from(universe), WEIGHTS))
        weights[draw(st.sampled_from(universe))] = 0.5
        individuals.append({"id": f"p{i}", "membership": weights})
    return {"universe": universe,
            "alternatives": [{"id": f"a{j}", "offers": draw(members)}
                             for j in range(draw(st.integers(1, 4)))],
            "individuals": individuals}


class TestColumnsEqualConstructors:
    """A society or environment the parser builds from columns equals the
    one the checking constructors build from individuals or alternatives,
    and reads back the same way."""

    @settings(max_examples=200, deadline=None)
    @given(doc=scenario_documents())
    def test_parsed_columns_equal_constructed(self, doc):
        scenario = parse_scenario(json.dumps(doc))
        assert isinstance(scenario, Scenario)
        universe = Universe(tuple(doc["universe"]))  # equal, not the same object
        society = Society(
            Individual(e["id"], universe,
                       e.get("membership") or dict.fromkeys(e["requires"], 1))
            for e in doc["individuals"])
        environment = Environment(
            Alternative(e["id"], universe.subset(e["offers"]))
            for e in doc["alternatives"])
        for parsed, built, items in (
                (scenario.society, society, "individuals"),
                (scenario.environment, environment, "alternatives")):
            assert parsed == built and hash(parsed) == hash(built)
            assert getattr(parsed, items) == getattr(built, items)
            assert list(parsed) == list(built)
            assert (parsed.ids, len(parsed), parsed.universe) == (
                built.ids, len(built), built.universe)


json_values = st.recursive(
    st.sampled_from([None, True, False, 0, 1, 2, -1, 10 ** 30, 0.25, 1.5, -0.5,
                     1e-300, 1e300, "a", "b", "c", "d", "a1", "", "a b", "\x1b[2J"])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "id", "offers", "requires"]),
                      children, max_size=3),
    max_leaves=4)
json_text = st.text(alphabet=st.sampled_from('{}[]":, 0123456789.eE-+abtrueflsn'),
                    max_size=120)


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario with one to three values replaced by arbitrary
    JSON values or array entries duplicated, as text."""
    doc = json.loads(bundled(draw(st.sampled_from(
        ["crisp_pair.json", "weighted_split.json", "partial_overlap.json"]))))
    for _ in range(draw(st.integers(1, 3))):
        slots = []

        def walk(node):
            children = (node.items() if isinstance(node, dict)
                        else enumerate(node) if isinstance(node, list) else ())
            for key, child in children:
                slots.append((node, key))
                walk(child)

        walk(doc)
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, list) and draw(st.booleans()):
            node.insert(key, node[key])
        else:
            node[key] = draw(json_values)
    return json.dumps(doc)


def assert_scenario_or_located_errors(text):
    report = validate_scenario(text)
    if report.errors:
        assert all(f.location for f in report.errors), report.errors
        assert parse_scenario(text) == report
    else:
        assert isinstance(parse_scenario(text), Scenario)


class TestParserFuzz:
    """Any input ends as a scenario or as located errors, never as an
    exception."""

    @settings(max_examples=100, deadline=None)
    @given(text=st.text(max_size=120) | json_text)
    def test_random_text(self, text):
        assert_scenario_or_located_errors(text)

    @settings(max_examples=200, deadline=None)
    @given(text=mutated_scenarios())
    def test_mutated_bundled_scenarios(self, text):
        assert_scenario_or_located_errors(text)


DECLARED = ("a", "b", "c")
WIDE = tuple(f"o{p:03d}" for p in range(130))
WIDE_EDGES = WIDE[62:66] + WIDE[126:]
objective_lists = st.lists(
    st.sampled_from(DECLARED + ("zz", "\x1b[2J")) | st.text(max_size=3)
    | st.none() | st.booleans()
    | st.sampled_from([0, 2, -1, 0.5, 10 ** 30])
    | st.lists(st.sampled_from(DECLARED), max_size=2)
    | st.dictionaries(st.sampled_from(DECLARED), st.integers(0, 1), max_size=2),
    max_size=8)


def objective_list_spec(values, location, empty, declared=DECLARED):
    """The findings, as (severity, location, message), and the mask that an
    ``offers`` or ``requires`` list over ``declared`` gives; None for the
    mask of a list with an error."""
    if not values:
        return [("error", location, empty)], None
    findings, listed, bad = [], [], False
    for j, value in enumerate(values):
        where = f"{location}[{j}]"
        if not isinstance(value, str):
            findings.append(("error", where, "objective name must be a string"))
            bad = True
        elif value not in declared:
            shown = value if value.isprintable() else repr(value)[1:-1]
            findings.append(("error", where, f"unknown objective '{shown}'"))
            bad = True
        elif value in listed:
            findings.append(("warning", where, f"objective '{value}' listed twice"))
        else:
            listed.append(value)
    return findings, None if bad else sum(1 << declared.index(t) for t in listed)


class TestObjectiveLists:
    """``offers`` and ``requires`` lists give the findings and the mask of
    a spec written out in this test."""

    @settings(max_examples=300, deadline=None)
    @given(offers=objective_lists, requires=objective_lists)
    def test_findings_and_mask_match_the_spec(self, offers, requires):
        text = json.dumps({
            "universe": list(DECLARED),
            "alternatives": [{"id": "x", "offers": offers}],
            "individuals": [{"id": "p", "requires": requires}]})
        offer_findings, offer_mask = objective_list_spec(
            offers, "alternatives[0].offers", "alternative 'x' offers no objectives")
        require_findings, require_mask = objective_list_spec(
            requires, "individuals[0].requires",
            "empty support: individual requires no objectives")
        report = validate_scenario(text)
        assert [(f.severity, f.location, f.message) for f in report.findings] == (
            offer_findings + require_findings)
        scenario = parse_scenario(text)
        if offer_mask is None or require_mask is None:
            assert scenario == report
        else:
            assert scenario.environment.alternatives[0].offers.mask == offer_mask
            assert scenario.society.individuals[0]._mask == require_mask

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.sampled_from(WIDE) | st.sampled_from(WIDE_EDGES),
                           min_size=1, max_size=12))
    # a repeat of bit 63 or 127 carries into the next word, onto a listed bit
    @example(values=["o063", "o063", "o064"])
    @example(values=["o126", "o127", "o127", "o128", "o000"])
    @example(values=["o064", "o064", "o065", "o065", "o066"])
    def test_popcount_rule_across_machine_words(self, values):
        entries = [{"id": "p", "requires": values}, {"id": "q", "requires": ["o129"]}]
        text = json.dumps({
            "universe": list(WIDE),
            "alternatives": [{"id": "x", "offers": values}],
            "individuals": entries})
        offer_findings, mask = objective_list_spec(
            values, "alternatives[0].offers",
            "alternative 'x' offers no objectives", WIDE)
        require_findings, _ = objective_list_spec(
            values, "individuals[0].requires",
            "empty support: individual requires no objectives", WIDE)
        report = validate_scenario(text)
        assert [(f.severity, f.location, f.message) for f in report.findings] == (
            offer_findings + require_findings)
        scenario = parse_scenario(text)
        assert scenario.environment.alternatives[0].offers.mask == mask
        assert scenario.society.individuals[0]._mask == mask
        # the whole-section pass accepts exactly the lists with no repeat
        assert (_accept_alternatives(offered(entries), token_bits(WIDE)) is None) == (
            bool(require_findings))
        alternatives = [{"id": "x", "offers": values}, {"id": "y", "offers": ["o129"]}]
        assert (_accept_alternatives(alternatives, token_bits(WIDE)) is None) == (
            bool(offer_findings))


def offered(entries):
    """``entries`` with each ``requires`` key renamed ``offers``: the same
    crisp lists as an alternatives section."""
    return [{("offers" if k == "requires" else k): v for k, v in e.items()}
            if isinstance(e, dict) else e for e in entries]


def _with_token(draw, entry, token):
    requires = list(entry["requires"])
    requires.insert(draw(st.integers(0, len(requires))), token)
    return {**entry, "requires": requires}


#: Each way to break one crisp entry: acceptance must refuse the section.
ENTRY_BREAKS = {
    "extra key": lambda draw, entry, twin: {**entry, "note": 1},
    "membership and requires":
        lambda draw, entry, twin: {**entry, "membership": {"a": 1}},
    "membership only":
        lambda draw, entry, twin: {"id": entry["id"], "membership": {"a": 0.5}},
    "no requires": lambda draw, entry, twin: {"id": entry["id"]},
    "not an object": lambda draw, entry, twin: draw(st.sampled_from(
        [[], ["id", "requires"], "p", 1, None, True])),
    "duplicate id": lambda draw, entry, twin: {**entry, "id": twin},
    "bad id": lambda draw, entry, twin: {**entry, "id": draw(st.sampled_from(
        ["", "p q", "p\x1b", "p\n", "p\u00a0", 1, 1.5, None, True, ["p"], {"p": 1}]))},
    "empty list": lambda draw, entry, twin: {**entry, "requires": []},
    "not a list": lambda draw, entry, twin: {**entry, "requires": draw(st.sampled_from(
        ["a", "ab", {"a": 1}, 1, None]))},
    "repeated token": lambda draw, entry, twin: _with_token(
        draw, entry, draw(st.sampled_from(entry["requires"]))),
    "bad token": lambda draw, entry, twin: _with_token(draw, entry, draw(
        st.sampled_from(["zz", "", 1, 1.5, None, True, ["a"], {"a": 1}]))),
}


@st.composite
def crisp_sections(draw):
    """An individuals section of 2 to 9 valid crisp entries over DECLARED,
    with up to three entries broken in one way each; and the breaks.  A
    duplicate id copies the first id that no duplicate break changes, so
    two such breaks cannot swap ids."""
    count = draw(st.integers(2, 9))
    entries = [{"id": f"p{i}", "requires": draw(st.lists(
        st.sampled_from(DECLARED), min_size=1, max_size=3, unique=True))}
        for i in range(count)]
    breaks = draw(st.lists(st.tuples(st.integers(0, count - 1),
                                     st.sampled_from(sorted(ENTRY_BREAKS))),
                           max_size=3, unique_by=lambda b: b[0]))
    copied = {i for i, kind in breaks if kind == "duplicate id"}
    twin = f"p{min(set(range(count)) - copied, default=0)}"
    for i, kind in breaks:
        entries[i] = ENTRY_BREAKS[kind](draw, entries[i], twin)
    return entries, breaks


def located_alone(parsed):
    """``parsed()`` with every whole-section and chunk acceptance refused,
    so that the located pass alone reads each section."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_io, "_accepted_ids", lambda raw: None)
        return parsed()


def _broken(count, changes):
    """``count`` valid crisp entries, entry i replaced by ``changes[i]``, as
    ``crisp_sections`` draws them."""
    entries = [changes.get(i, {"id": f"p{i}", "requires": [DECLARED[i % 3]]})
               for i in range(count)]
    return entries, list(changes)


class TestCrispSectionAcceptance:
    """The whole-section pass over crisp individuals, and over alternatives,
    accepts only sections on which the located pass finds nothing, and
    yields what it builds."""

    @settings(max_examples=400, deadline=None)
    @given(section=crisp_sections(), key=st.sampled_from(["requires", "offers"]))
    # with chunks of 3: a duplicate id whose first use is in an earlier chunk
    @example(section=_broken(5, {4: {"id": "p0", "requires": ["a"]}}),
             key="requires")
    @example(section=_broken(5, {4: {"id": "p0", "requires": ["a"]}}),
             key="offers")
    # a failure in the first chunk and one in the last
    @example(section=_broken(7, {0: {"id": "p0", "requires": ["zz"]},
                                 6: {"id": "p6", "requires": []}}),
             key="requires")
    # a section shorter than one chunk, and one of exactly two chunks
    @example(section=_broken(2, {1: {"id": "p1", "requires": ["a", "a"]}}),
             key="offers")
    @example(section=_broken(6, {4: {"id": "p4", "requires": "a"}}),
             key="requires")
    # a membership entry inside a crisp section
    @example(section=_broken(5, {3: {"id": "p3", "membership": {"a": 0.5}}}),
             key="requires")
    def test_parse_equals_the_located_pass_alone(self, section, key):
        """The columns, findings and warnings of a section, parsed whole
        or in chunks of 3, are those of the located pass alone."""
        entries, breaks = section
        # the same section as an alternatives one: each break still breaks
        # an entry
        if key == "offers":
            entries = offered(entries)
        crisp = {"id": "p", "requires": ["a"]}
        text = json.dumps(
            {"universe": list(DECLARED),
             "alternatives": [{"id": "x", "offers": ["a"]}], "individuals": entries}
            if key == "requires" else
            {"universe": list(DECLARED), "alternatives": entries,
             "individuals": [crisp]})
        validate = (scenario_io._validate_individuals if key == "requires"
                    else scenario_io._validate_alternatives)
        doc = _load(text)

        def parsed():
            findings = []
            columns = validate(doc, token_bits(DECLARED), findings)
            return columns, findings, _parse(text)

        located = located_alone(parsed)
        assert parsed() == located
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario_io, "_CHUNK", 3)
            assert parsed() == located
        accepted = _accept_alternatives(offered(entries), token_bits(DECLARED))
        assert (accepted is None) == bool(breaks)

    @pytest.mark.parametrize("key", ["requires", "offers"])
    def test_one_late_fault_costs_the_located_pass_one_chunk(self, key,
                                                             monkeypatch):
        doc = json.loads(tall_crisp_document(5, individuals=4000))
        section = "individuals"
        if key == "offers":
            section = "alternatives"
            doc["alternatives"] = [{"id": e["id"], "offers": e["requires"]}
                                   for e in doc["individuals"]]
            doc["individuals"] = [{"id": "p", "requires": ["o000"]}]
        doc[section][3900][key].insert(1, "zz")
        text = json.dumps(doc)
        visited = []
        entries = scenario_io._entries

        def counted(raw, *args):
            visited.append(len(raw))
            return entries(raw, *args)

        monkeypatch.setattr(scenario_io, "_entries", counted)
        report = validate_scenario(text)
        assert [(f.location, f.message) for f in report.findings] == [
            (f"{section}[3900].{key}[1]", "unknown objective 'zz'")]
        assert 0 < sum(visited) <= scenario_io._CHUNK < 4000


class Raw(str):
    """A number literal, written into a document as it is spelled."""


def raw_json(value) -> str:
    """``value`` as JSON text, each ``Raw`` literal as it is spelled."""
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(key)}: {raw_json(item)}"
                               for key, item in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(raw_json, value)) + "]"
    return json.dumps(value)


#: Weights in (0, 1], equal values spelled apart among them.
WEIGHT_LITERALS = ("0.5", "0.50", "1", "1.0", "0.25", "25e-2", "1E+0", "0.125",
                   "0.333")


def _membership(draw):
    """A valid membership over DECLARED, its keys in any order."""
    tokens = draw(st.lists(st.sampled_from(DECLARED), min_size=1, max_size=3,
                           unique=True))
    return {token: Raw(draw(st.sampled_from(WEIGHT_LITERALS))) for token in tokens}


def _with_weight(draw, entry, literals, token=None):
    """``entry`` as a weighted entry whose membership maps ``token``, or a
    declared objective, to one of ``literals``."""
    membership = dict(entry.get("membership") or _membership(draw))
    if token is None:
        token = draw(st.sampled_from(DECLARED))
    membership[token] = Raw(draw(st.sampled_from(literals)))
    return {"id": entry["id"], "membership": membership}


#: Each way to make one entry of a weighted section unacceptable whole: the
#: located pass reports all but a zero, which it drops.
WEIGHTED_BREAKS = {
    "zero": lambda draw, entry, twin: _with_weight(
        draw, entry, ["0", "0.0", "-0.0", "0e5", "-0"]),
    "only zeros": lambda draw, entry, twin: {
        "id": entry["id"],
        "membership": {token: Raw("0")
                       for token in DECLARED[:draw(st.integers(1, 3))]}},
    "boolean": lambda draw, entry, twin: _with_weight(
        draw, entry, ["true", "false"]),
    "out of range": lambda draw, entry, twin: _with_weight(
        draw, entry, ["1.5", "-0.25", "2", "1.0000001", "-1", "1e1"]),
    "not a number": lambda draw, entry, twin: _with_weight(
        draw, entry, ['"0.5"', "null", "[1]", '{"a": 1}']),
    "unknown objective": lambda draw, entry, twin: _with_weight(
        draw, entry, WEIGHT_LITERALS, draw(st.sampled_from(["zz", "\x1b", ""]))),
    "empty membership": lambda draw, entry, twin: {"id": entry["id"],
                                                   "membership": {}},
    "membership not an object": lambda draw, entry, twin: {
        "id": entry["id"],
        "membership": draw(st.sampled_from([[], ["a"], "a", 1, None, Raw("0.5")]))},
    "membership and requires": lambda draw, entry, twin: {
        "id": entry["id"], "membership": _membership(draw), "requires": ["a"]},
    "extra key": lambda draw, entry, twin: {**entry, "note": 1},
    "no weights": lambda draw, entry, twin: {"id": entry["id"]},
    "not an object": lambda draw, entry, twin: draw(st.sampled_from(
        [[], ["id", "membership"], "p", 1, None])),
    "duplicate id": lambda draw, entry, twin: {**entry, "id": twin},
    "bad id": lambda draw, entry, twin: {**entry, "id": draw(st.sampled_from(
        ["", "p q", "p\x1b", 1, None, True, ["p"]]))},
    "bad requires": lambda draw, entry, twin: {
        "id": entry["id"],
        "requires": draw(st.sampled_from([[], ["a", "a"], ["zz"], "a"]))},
}


@st.composite
def weighted_sections(draw):
    """An individuals section of 2 to 9 valid entries over DECLARED, the
    first weighted and each other weighted or crisp, with up to three
    entries broken in one way each; and the breaks."""
    count = draw(st.integers(2, 9))
    entries = [{"id": f"p{i}", "membership": _membership(draw)}
               if i == 0 or draw(st.booleans()) else
               {"id": f"p{i}", "requires": draw(st.lists(
                   st.sampled_from(DECLARED), min_size=1, max_size=3, unique=True))}
               for i in range(count)]
    breaks = draw(st.lists(st.tuples(st.integers(0, count - 1),
                                     st.sampled_from(sorted(WEIGHTED_BREAKS))),
                           max_size=3, unique_by=lambda b: b[0]))
    copied = {i for i, kind in breaks if kind == "duplicate id"}
    twin = f"p{min(set(range(count)) - copied, default=0)}"
    for i, kind in breaks:
        entries[i] = WEIGHTED_BREAKS[kind](draw, entries[i], twin)
    return entries, breaks


def _weighted(count, changes, broken=True):
    """``count`` valid weighted entries, entry i replaced by ``changes[i]``;
    the changes are the breaks unless ``broken`` is false."""
    entries = [changes.get(i, {"id": f"p{i}",
                               "membership": {DECLARED[i % 3]: Raw("0.5")}})
               for i in range(count)]
    return entries, list(changes) if broken else []


def tall_weighted_entries(seed: int, individuals: int,
                          mixed: bool = True) -> list[dict]:
    """``individuals`` valid entries over ``WIDE[:32]``: memberships of a
    few two-decimal weights, spelled alike across the section, as in the
    benchmark's weighted documents, which have no crisp entry; when
    ``mixed``, every third entry is crisp instead."""
    rng = random.Random(seed)

    def subset():
        return rng.sample(WIDE[:32], rng.randint(1, 16))

    return [{"id": f"p{i}", "requires": subset()} if mixed and i % 3 == 0 else
            {"id": f"p{i}", "membership": {
                token: Raw(rng.choice(("0.5", "0.25", "1", "0.75", "0.1", "1.0")))
                for token in subset()}}
            for i in range(individuals)]


def weighted_document(entries) -> str:
    return raw_json({"universe": list(WIDE[:32]),
                     "alternatives": [{"id": "x", "offers": list(WIDE[:8])}],
                     "individuals": entries})


class TestWeightedSectionAcceptance:
    """The whole-section pass over weighted individuals accepts only
    sections of ``membership`` entries alone on which the located pass
    finds nothing and drops no zero, and yields what the located pass
    builds; a section that mixes in crisp entries is left to the located
    pass."""

    @settings(max_examples=400, deadline=None)
    @given(section=weighted_sections())
    # a boolean beside a 1: a set of the values would hold only one of them
    @example(section=_weighted(3, {1: {"id": "p1", "membership": {
        "a": Raw("1"), "b": Raw("true")}}}))
    @example(section=_weighted(3, {1: {"id": "p1", "membership": {
        "b": Raw("true"), "a": Raw("1")}}}))
    # equal values spelled apart, keys out of universe order, and a crisp
    # entry, which makes the section a mixed one
    @example(section=_weighted(4, {
        0: {"id": "p0", "membership": {"a": Raw("0.5"), "b": Raw("0.50")}},
        1: {"id": "p1", "membership": {"c": Raw("1"), "a": Raw("1.0")}},
        2: {"id": "p2", "requires": ["c", "a"]}}, broken=False))
    # explicit zeros, and a membership of zeros only
    @example(section=_weighted(3, {0: {"id": "p0", "membership": {
        "a": Raw("0"), "b": Raw("0.5")}}}))
    @example(section=_weighted(3, {1: {"id": "p1", "membership": {
        "a": Raw("0.0"), "b": Raw("0")}}}))
    @example(section=_weighted(2, {0: {"id": "p0", "membership": {
        "zz": Raw("0.5"), "a": Raw("1")}}}))
    # with chunks of 3: a duplicate id whose first use is in an earlier chunk
    @example(section=_weighted(5, {4: {"id": "p0", "membership": {
        "b": Raw("0.5")}}}))
    # an entry of neither kind
    @example(section=_weighted(5, {1: {"id": "p1", "bogus": 1}}))
    def test_parse_equals_the_located_pass_alone(self, section):
        """The columns, findings and warnings of a section, parsed whole
        or in chunks of 3, are those of the located pass alone."""
        entries, breaks = section
        text = raw_json({"universe": list(DECLARED),
                         "alternatives": [{"id": "x", "offers": ["a"]}],
                         "individuals": entries})
        doc = _load(text)

        def parsed():
            findings = []
            columns = scenario_io._validate_individuals(
                doc, token_bits(DECLARED), findings)
            return columns, findings, _parse(text)

        located = located_alone(parsed)
        assert parsed() == located
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario_io, "_CHUNK", 3)
            assert parsed() == located
        accepted = scenario_io._accept_individuals(doc["individuals"],
                                                   token_bits(DECLARED))
        # refused exactly when broken, or when crisp and weighted entries mix
        refused = bool(breaks) or len({frozenset(e) for e in entries}) > 1
        assert (accepted is None) == refused

    @pytest.mark.parametrize("chunk", [256, 3])
    def test_an_entry_of_neither_kind_is_worded_by_the_located_pass(
            self, chunk, monkeypatch):
        entries, _ = _weighted(5, {1: {"id": "p1", "bogus": 1}})
        monkeypatch.setattr(scenario_io, "_CHUNK", chunk)
        report = validate_scenario(raw_json({
            "universe": list(DECLARED),
            "alternatives": [{"id": "x", "offers": ["a"]}],
            "individuals": entries}))
        assert [(f.severity, f.location, f.message) for f in report.findings] == [
            ("warning", "individuals[1].bogus", "unknown key 'bogus'"),
            ("error", "individuals[1]",
             "exactly one of 'membership' or 'requires' must be given")]

    def test_distinct_literals_parse_as_the_located_pass(self):
        text = distinct_weights_document(30, 12)
        doc = _load(text)
        assert scenario_io._accept_individuals(
            doc["individuals"], token_bits(doc["universe"])) is not None
        assert _parse(text) == located_alone(lambda: _parse(text))

    def test_a_valid_weighted_section_runs_no_located_pass(self, monkeypatch):
        calls = []
        located = scenario_io._located_individual

        def counted(*args):
            calls.append(args)
            return located(*args)

        monkeypatch.setattr(scenario_io, "_located_individual", counted)
        for text in (distinct_weights_document(30, 12),
                     weighted_document(tall_weighted_entries(3, 600, mixed=False))):
            assert isinstance(parse_scenario(text), Scenario)
        assert calls == []

    def test_a_crisp_section_never_tries_the_weighted_pass(self, monkeypatch):
        calls = []
        weighted = scenario_io._accept_memberships

        def counted(memberships, *args):
            calls.append(len(memberships))
            return weighted(memberships, *args)

        monkeypatch.setattr(scenario_io, "_accept_memberships", counted)
        valid = tall_crisp_document(5, individuals=600)
        doc = json.loads(valid)
        doc["individuals"][500]["requires"].append("zz")
        assert isinstance(parse_scenario(valid), Scenario)
        assert not validate_scenario(json.dumps(doc)).ok
        # nor is a mixed section, valid or not, whole or in chunks
        mixed = weighted_document(tall_weighted_entries(3, 600))
        assert isinstance(parse_scenario(mixed), Scenario)
        doc["individuals"][500] = {"id": "p500", "membership": {"o000": 1.5}}
        assert not validate_scenario(json.dumps(doc)).ok
        assert calls == []

    def test_one_late_fault_costs_the_located_pass_one_chunk(self, monkeypatch):
        entries = tall_weighted_entries(5, 4000, mixed=False)
        entries[3901]["membership"]["zz"] = Raw("0.5")
        visited = []
        walk = scenario_io._entries

        def counted(raw, *args):
            visited.append(len(raw))
            return walk(raw, *args)

        monkeypatch.setattr(scenario_io, "_entries", counted)
        report = validate_scenario(weighted_document(entries))
        assert [(f.location, f.message) for f in report.findings] == [
            ("individuals[3901].membership.zz", "unknown objective 'zz'")]
        assert 0 < sum(visited) <= scenario_io._CHUNK < 4000


def repeated_weights_document() -> str:
    """5,000 weighted individuals that spell two literals between them."""
    return raw_json({
        "universe": ["a", "b", "c"],
        "alternatives": [{"id": "x", "offers": ["a"]}],
        "individuals": [{"id": f"p{i}", "membership": {
            "a": Raw("0.25"), "b": Raw("0.25"), "c": Raw("1")}}
            for i in range(5000)]})


class TestLiteralMemo:
    """A parse reads each distinct number literal once, and the memo that
    makes it so changes no finding and lives no longer than its parse."""

    def test_a_repeated_literal_is_bounded_once_per_parse(self, monkeypatch):
        calls = []
        bounded = scenario_io._bounded

        def counted(text):
            calls.append(text)
            return bounded(text)

        monkeypatch.setattr(scenario_io, "_bounded", counted)
        text = repeated_weights_document()
        scenario = parse_scenario(text)
        assert sorted(calls) == ["0.25", "1"]
        # a second parse shares nothing with the first
        assert parse_scenario(text) == scenario
        assert sorted(calls) == ["0.25", "0.25", "1", "1"]

    @pytest.mark.parametrize("document", [repeated_weights_document,
                                          distinct_weights_document])
    def test_a_valid_section_costs_one_read_per_literal_and_one_acceptance(
            self, document, monkeypatch):
        text = document()
        literals = []
        json.loads(text, parse_float=literals.append, parse_int=literals.append)
        calls = {"_bounded": [], "_accept_memberships": [],
                 "_located_individual": []}

        def count(name):
            function = getattr(scenario_io, name)

            def counted(first, *args):
                calls[name].append(first)
                return function(first, *args)
            monkeypatch.setattr(scenario_io, name, counted)

        for name in calls:
            count(name)
        scenario = parse_scenario(text)
        assert isinstance(scenario, Scenario)
        assert sorted(calls["_bounded"]) == sorted(set(literals))
        assert list(map(len, calls["_accept_memberships"])) == [len(scenario.society)]
        assert calls["_located_individual"] == []

    def test_each_kind_of_weight_value_keeps_its_finding(self):
        values = ["0", "-0.0", "0.5", "1", "1.0", "1.25", "2", "true", '"0.5"',
                  "null", "[]", "{}"]
        tokens = "abcdefghijkl"
        membership = ", ".join(f'"{t}": {v}' for t, v in zip(tokens, values))
        report = validate_scenario(
            f'{{"universe": {json.dumps(list(tokens))}, '
            f'"alternatives": [{{"id": "x", "offers": ["a"]}}], '
            f'"individuals": [{{"id": "p", "membership": {{{membership}}}}}, '
            f'{{"id": "q", "membership": {{"a": 0, "b": -0.0}}}}]}}')
        out_of_range = "membership out of range: {} is not in [0, 1]"
        assert [(f.severity, f.location, f.message) for f in report.findings] == [
            ("error", "individuals[0].membership.f", out_of_range.format("1.25")),
            ("error", "individuals[0].membership.g", out_of_range.format("2")),
            *[("error", f"individuals[0].membership.{t}",
               "membership value must be a number") for t in "hijkl"],
            ("error", "individuals[1].membership",
             "empty support: no objective has positive weight")]

    def test_the_memo_changes_no_finding(self, monkeypatch):
        long_int = "1" + "0" * 5000
        texts = [path.read_text() for path in sorted(INVALID_DIR.glob("*.json"))]
        texts += [MINIMAL.replace('"requires": ["a"]', f'"membership": {{"a": {w}}}')
                  for w in ("1e5000", "1e-3000000", long_int, "0." + "1" * 1001)]
        texts.append(MINIMAL.replace(
            '{"id": "p", "requires": ["a"]}',
            ", ".join(f'{{"id": "p{i}", "membership": {{"a": 1e5000}}}}'
                      for i in range(3))))
        with_memo = [render_validation(validate_scenario(text), "table")
                     for text in texts]
        monkeypatch.setattr(scenario_io, "cache", lambda function: function)
        assert [render_validation(validate_scenario(text), "table")
                for text in texts] == with_memo


class Pairs(list):
    """A JSON object as its ``(key, value)`` pairs, a key possibly
    repeated; keys and leaves are JSON text as spelled."""


def pairs_json(value, colon: str) -> str:
    """``value`` as JSON text, each key separated from its value by
    ``colon``."""
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{key}{colon}{pairs_json(item, colon)}"
                               for key, item in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(pairs_json(item, colon) for item in value) + "]"
    return value


# "a\u003ab" spells the key "a:b" with no colon in the text
KEY_TEXTS = st.sampled_from(['"id"', '"offers"', '"requires"', '"membership"',
                             '"universe"', '"a"', '"a:b"', '":"', '"a\\u003ab"'])
VALUE_TEXTS = st.recursive(
    st.sampled_from(['"a"', '"a:b"', '"x\\u003ay"', '0.25', '1', '2', '-0.0',
                     'true', 'null', '1e99999', '[]', '{}']),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(st.tuples(KEY_TEXTS, inner), max_size=3).map(Pairs)),
    max_leaves=8)
MEMBERSHIPS = st.lists(st.tuples(
    st.sampled_from(['"a"', '"b"', '"a:b"', '"a\\u003ab"']),
    st.sampled_from(["0.5", "1", "0", "2"])), max_size=3).map(Pairs)
ENTRIES = st.lists(st.one_of(
    st.tuples(st.just('"id"'), st.sampled_from(['"p"', '"q:r"'])),
    st.tuples(st.sampled_from(['"offers"', '"requires"']),
              st.lists(st.sampled_from(['"a"', '"a:b"']), max_size=2) | VALUE_TEXTS),
    st.tuples(st.just('"membership"'), MEMBERSHIPS | VALUE_TEXTS),
    st.tuples(KEY_TEXTS, VALUE_TEXTS)), max_size=4).map(Pairs)
DOCUMENTS = st.lists(st.one_of(
    st.tuples(st.just('"universe"'),
              st.lists(st.sampled_from(['"a"', '"b"', '"a:b"']), max_size=3)),
    st.tuples(st.sampled_from(['"alternatives"', '"individuals"']),
              st.lists(ENTRIES | VALUE_TEXTS, max_size=3)),
    st.tuples(KEY_TEXTS, VALUE_TEXTS)), max_size=5).map(Pairs)
#: Scenario-shaped JSON text, a list at the top level among it, with
#: repeated keys, colons inside strings and a trailing fault or two.
SCENARIO_TEXTS = st.builds(
    lambda top, colon, suffix: pairs_json(top, colon) + suffix,
    DOCUMENTS | st.lists(ENTRIES | VALUE_TEXTS, max_size=3),
    st.sampled_from([": ", ":", " : ", "\n:\t"]),
    st.sampled_from(["", "\n", " x", ",", "]"]))


def decoded(text: str):
    """What ``_load`` makes of ``text``: the document's repr, which keeps
    the key order, or the exception it raises."""
    try:
        return "document", repr(_load(text))
    except scenario_io._DuplicateKey as exc:
        return "duplicate key", exc.key
    except (ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def hooked(text: str):
    """``decoded(text)`` with ``_pairs_hook`` on every decode, the first
    included: that decode returns or raises as a parser that decodes once,
    checking every object's keys, does."""
    loads = json.loads
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json, "loads", partial(
            loads, object_pairs_hook=scenario_io._pairs_hook))
        return decoded(text)


def workload_documents(seed: int) -> list:
    """The benchmark's documents of ``seed``, from every workload."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks its module up
    spec.loader.exec_module(workloads)
    return [document for name in workloads.WORKLOADS
            for document in workloads.generate(name, seed)]


class TestRepeatedKeys:
    """``_load`` certifies the absence of repeated keys by one colon count,
    and decodes a second time with ``_pairs_hook`` only when the count
    cannot: either way it returns or raises as the hooked decode does."""

    @given(text=SCENARIO_TEXTS)
    @example(text=MINIMAL)
    @example(text=MINIMAL.replace('"requires": ["a"]',
                                  '"membership": {"a": 0.5, "a": 1}'))
    @example(text='{"universe": ["a"], "extra": {"k": 1, "k": 2}}')
    @example(text='{"universe": ["a"], "extra": {"k": 1}}')
    @example(text=MINIMAL.replace('"offers": ["a"]', '"offers": [{"k": 1, "k": 2}]'))
    @example(text='{"universe": ["a:b"], "alternatives": [{"id": "x:y", '
                  '"offers": ["a:b"]}], "individuals": [{"id": "p", '
                  '"membership": {"a:b": 1, "a\\u003ab": 0.5}}], "c:d": 1}')
    # strings where the count looks for objects: their lengths are no keys
    @example(text='{"alternatives": ["ab"], "x": {"k": 1, "k": 2}}')
    @example(text='{"individuals": [{"membership": "ab"}], "x": {"k": 1, "k": 2}}')
    @example(text='{"universe" :\n["a"],\t"universe"\n:\n["b"]}')
    @example(text='[{"a": 1, "a": 2}]')
    @example(text='[{"a": 1}]')
    @example(text='[{"a": 1, "a": 2}, x]')
    @example(text='{"a": {"b": 1, "b": 2}, "c": ]')
    @example(text='[{"a": 1, "a": 2}, 1e99999]')
    @example(text='{"a": 1, "a": 2, "b": 1e99999}')
    @settings(max_examples=300, deadline=None)
    def test_the_count_changes_no_document_and_no_exception(self, text):
        assert decoded(text) == hooked(text)

    def test_the_workloads_are_decoded_once_without_the_hook(self, monkeypatch):
        hooks, loads = [], []
        pairs_hook, json_loads = scenario_io._pairs_hook, json.loads

        def counted_hook(pairs):
            hooks.append(pairs)
            return pairs_hook(pairs)

        def counted_loads(*args, **kwargs):
            loads[-1] += 1
            return json_loads(*args, **kwargs)

        monkeypatch.setattr(scenario_io, "_pairs_hook", counted_hook)
        monkeypatch.setattr(json, "loads", counted_loads)
        documents = workload_documents(0)
        for document in documents:
            loads.append(0)
            _parse(document.text)
        assert hooks == []
        # the nested probe fails the first decode, and the second decode
        # meets no object
        assert loads == [2 if document.probe else 1 for document in documents]
        for path in sorted(INVALID_DIR.glob("*.json")):
            loads.append(0)
            _parse(path.read_text())
            assert loads[-1] <= 2, path.name

    def test_the_second_decode_bounds_no_literal_again(self, monkeypatch):
        calls, loads = [], []
        bounded, json_loads = scenario_io._bounded, json.loads

        def counted(text):
            calls.append(text)
            return bounded(text)

        def counted_loads(*args, **kwargs):
            loads.append(kwargs.get("object_pairs_hook"))
            return json_loads(*args, **kwargs)

        monkeypatch.setattr(scenario_io, "_bounded", counted)
        monkeypatch.setattr(json, "loads", counted_loads)
        # a colon in every token: the count cannot clear the file
        text = repeated_weights_document().replace('"a"', '"a:1"')
        text = text.replace('"b"', '"b:1"').replace('"c"', '"c:1"')
        scenario = parse_scenario(text)
        assert isinstance(scenario, Scenario)
        assert loads == [None, scenario_io._pairs_hook]
        assert sorted(calls) == ["0.25", "1"]


class TestInvalidCorpus:
    def test_every_corpus_file_has_an_expected_location(self):
        assert sorted(EXPECTED_LOCATIONS) == sorted(
            path.name for path in INVALID_DIR.glob("*.json"))

    @pytest.mark.parametrize("name", sorted(EXPECTED_LOCATIONS))
    def test_error_with_location_and_no_partial_result(self, name):
        report = parse_scenario((INVALID_DIR / name).read_text())
        assert isinstance(report, ValidationReport), name
        assert report.errors, name
        assert any(f.location == EXPECTED_LOCATIONS[name]
                   for f in report.errors), report.errors

    @pytest.mark.parametrize("name", sorted(EXPECTED_LOCATIONS))
    def test_table_findings_are_printable(self, name):
        report = validate_scenario((INVALID_DIR / name).read_text())
        table = render_validation(report, "table")
        assert all(c == "\n" or c.isprintable() for c in table), table

    def test_huge_value_is_quoted_in_exponent_form(self):
        report = validate_scenario((INVALID_DIR / "huge_value_echo.json").read_text())
        assert [(f.location, f.message) for f in report.errors] == [
            ("individuals[0].membership.a",
             "membership out of range: 1.00000e+999 is not in [0, 1]")]
        assert len(render_validation(report, "table").encode()) < 200

    def test_findings_order_is_deterministic(self):
        text = (INVALID_DIR / "unknown_objective_offer.json").read_text()
        first = validate_scenario(text)
        second = validate_scenario(text)
        assert first == second


@pytest.fixture
def collector_state():
    """Puts the collector back as it was before the test, whatever the
    test left it as."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()


def exit_paths():
    """One text for each way out of ``_parse``: a valid scenario, a report
    with findings, and each early return at ``$``."""
    invalid = {name: (INVALID_DIR / name).read_text()
               for name in ("empty_offers.json", "syntax_error.json",
                            "deeply_nested.json")}
    return {"valid": MINIMAL, "findings": invalid["empty_offers.json"],
            "byte-order mark": "\ufeff" + MINIMAL,
            "duplicate key": '{"universe": ["a"], "universe": ["a"]}',
            "syntax error": invalid["syntax_error.json"],
            "nested too deeply": invalid["deeply_nested.json"],
            "not an object": "[]"}


@pytest.mark.usefixtures("collector_state")
class TestCollectorPaused:
    """``_parse`` pauses the cyclic garbage collector while it builds the
    document, and leaves it as it found it on every exit."""

    def test_collector_is_off_inside_a_parse(self, monkeypatch):
        seen = []
        validate = scenario_io._validate_individuals

        def recording(*args):
            seen.append(gc.isenabled())
            return validate(*args)

        monkeypatch.setattr(scenario_io, "_validate_individuals", recording)
        gc.enable()
        assert isinstance(_parse(MINIMAL)[0], Scenario)
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("path", sorted(exit_paths()))
    def test_state_is_restored_on_every_exit(self, path, enabled):
        (gc.enable if enabled else gc.disable)()
        scenario, report = _parse(exit_paths()[path])
        assert (scenario is not None) == (path == "valid")
        assert report.ok == (path == "valid")
        assert gc.isenabled() == enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_when_a_pass_raises(self, monkeypatch, enabled):
        def broken(*args):
            raise RuntimeError("section pass failed")

        monkeypatch.setattr(scenario_io, "_validate_alternatives", broken)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="section pass failed"):
            _parse(MINIMAL)
        assert gc.isenabled() == enabled

    def test_a_parse_makes_no_reference_cycles(self):
        """Reference counting frees everything a parse leaves behind, so
        pausing the collector defers no work to a later collection."""
        texts = [path.read_text(encoding="utf-8") for path in
                 [*sorted((ROOT / "scenarios").glob("*.json")),
                  *sorted(INVALID_DIR.glob("*.json"))]]
        texts += [tall_crisp_document(0), distinct_weights_document(),
                  one_objective_document(500)]
        gc.collect()
        gc.disable()
        for text in texts:
            _parse(text)
            assert gc.collect() == 0, text[:80]


def exactly_rounded(num: int, den: int, digits: int) -> str:
    """``num / den`` to ``digits`` places by ``round`` of a Fraction, which
    rounds half to even exactly; the oracle for the row formatter."""
    value = round(Fraction(num, den), digits)
    if digits == 0:
        return str(int(value))
    whole, frac = divmod(int(abs(value) * 10 ** digits), 10 ** digits)
    return f"{'-' if value < 0 else ''}{whole}.{frac:0{digits}d}"


class TestNumberFormatting:
    @pytest.mark.parametrize("value,digits,expected", [
        (Fraction(3, 5), 6, "0.600000"),
        (Fraction(1), 6, "1.000000"),
        (Fraction(1, 3), 6, "0.333333"),
        (Fraction(2, 3), 3, "0.667"),
        (Fraction(1, 2) ** 2, 2, "0.25"),
        (Fraction(-3, 2), 1, "-1.5"),
        (Fraction(5, 2), 0, "2"),      # round half to even
        (Fraction(7, 2), 0, "4"),
        (Fraction(125, 1000), 2, "0.12"),
        (Fraction(375, 1000), 2, "0.38"),
        # a float is the decimal literal it prints as, as in to_fraction
        (2.675, 2, "2.68"),
        (0.125, 2, "0.12"),
        (1.015, 2, "1.02"),
        (0.1, 20, "0.10000000000000000000"),
        (-0.5, 0, "0"),
        (1e-7, 8, "0.00000010"),
        (3, 2, "3.00"),
    ])
    def test_format_decimal(self, value, digits, expected):
        assert format_decimal(value, digits) == expected

    @pytest.mark.parametrize("value", [True, False])
    def test_format_decimal_rejects_booleans(self, value):
        with pytest.raises(TypeError):
            format_decimal(value)
        with pytest.raises(TypeError):
            format_utility(value)

    @settings(max_examples=400, deadline=None)
    @given(num=st.integers(-10 ** 40, 10 ** 40), den=st.integers(1, 10 ** 30),
           digits=st.integers(0, 18), tie=st.booleans())
    def test_integer_formatter_matches_fraction_reference(self, num, den,
                                                          digits, tie):
        if tie:  # an exact half one place past the last digit, unreduced
            num, den = (2 * num + 1) * den, 2 * 10 ** digits * den
        expected = reference_format_decimal(Fraction(num, den), digits)
        assert format_ratio(num, den, digits) == expected
        assert format_decimal(Fraction(num, den), digits) == expected

    @settings(max_examples=400, deadline=None)
    @given(base=st.integers(1, 10 ** 20), digits=st.integers(0, 18),
           unit=st.booleans(),
           cells=st.lists(st.tuples(st.integers(-10 ** 25, 10 ** 25),
                                    st.booleans()), min_size=1, max_size=12))
    def test_row_formatter_matches_exact_rounding(self, base, digits, unit,
                                                  cells):
        # over den = 2 * 10**digits * base, an odd multiple of base is an
        # exact half one place past the last digit; k alone is any value,
        # negative, in [0, 1) or beyond 1, within one row
        den = base if unit else 2 * 10 ** digits * base
        nums = [(2 * k + 1) * base if tie else k for k, tie in cells]
        expected = [exactly_rounded(num, den, digits) for num in nums]
        assert format_ratios(nums, den, digits) == expected
        assert [format_ratio(num, den, digits) for num in nums] == expected

    @pytest.mark.parametrize("nums,den,digits,expected", [
        ((0, 1, 2, 3, 4), 4, 2, ["0.00", "0.25", "0.50", "0.75", "1.00"]),
        ((-1, -3, 5, 7, -5), 2, 0, ["0", "-2", "2", "4", "-2"]),
        ((1, -1, 3, -3), 8, 2, ["0.12", "-0.12", "0.38", "-0.38"]),
        ((-1, 12345678), 10 ** 7, 6, ["0.000000", "1.234568"]),
    ])
    def test_row_formatter_cases(self, nums, den, digits, expected):
        assert format_ratios(nums, den, digits) == expected

    def test_format_utility_keeps_counts_integral(self):
        assert format_utility(3) == "3"
        assert format_utility(Fraction(3, 2), 2) == "1.50"
        assert format_utility(0.25, 2) == "0.25"


class TestRendering:
    def test_round_trip_determinism(self):
        scenario = parse_scenario(bundled("weighted_split.json"))
        for fmt in ("table", "json", "csv"):
            first = run_pipeline(scenario, "fuzzy", output_format=fmt)
            second = run_pipeline(parse_scenario(bundled("weighted_split.json")),
                                  "fuzzy", output_format=fmt)
            assert first == second
            assert first.endswith("\n")

    @pytest.mark.parametrize("measure", ["cardinal", "normalized", "fuzzy"])
    def test_reports_name_the_process_measure_and_the_mean(self, measure):
        """Reports read the measure from the process and write the
        aggregator as the literal word ``mean``."""
        result = compute_pipeline(parse_scenario(bundled("crisp_pair.json")),
                                  measure)
        assert result.process.measure.value == measure
        for render in (render_report, render_ranking):
            payload = json.loads(render(result, "json"))
            assert (payload["measure"], payload["aggregator"]) == (
                measure, "mean")
        report = render_report(result, "table")
        assert f"measure: {measure}, aggregator: mean\n" in report
        assert "\nsocial profile (mean):\n" in report
        assert render_ranking(result, "table").startswith(
            f"ranking (measure={measure}, aggregator=mean)\n")

    def test_unknown_format_rejected(self):
        scenario = parse_scenario(MINIMAL)
        with pytest.raises(Exception, match="unknown format"):
            run_pipeline(scenario, "fuzzy", output_format="xml")

    def test_report_formats_encode_same_numbers(self):
        scenario = parse_scenario(bundled("weighted_split.json"))
        result = compute_pipeline(scenario, UtilityMeasure.FUZZY)
        payload = json.loads(render_report(result, "json"))

        # json is the source of truth; csv must project identical strings
        csv_lines = render_report(result, "csv").splitlines()[1:]
        csv_profile = {}
        csv_social = {}
        for line in csv_lines:
            section, individual, alternative, value, tier = line.split(",")
            if section == "profile":
                csv_profile[(individual, alternative)] = value
            elif section == "social":
                csv_social[alternative] = value
        json_profile = {(p["individual"], a): v
                        for p in payload["profiles"]
                        for a, v in p["values"].items()}
        assert csv_profile == json_profile
        assert csv_social == payload["social_profile"]["values"]

        # and every number quoted in the table appears verbatim
        table = render_report(result, "table")
        for value in list(json_profile.values()) + list(csv_social.values()):
            assert value in table

    def test_ranking_formats_agree(self):
        scenario = parse_scenario(bundled("weighted_split.json"))
        result = compute_pipeline(scenario, "fuzzy")
        payload = json.loads(render_ranking(result, "json"))
        csv_rows = render_ranking(result, "csv").splitlines()[1:]
        flattened = [(str(entry["tier"]), entry["utility"], alt)
                     for entry in payload["ranking"]
                     for alt in entry["alternatives"]]
        assert [tuple(r.split(",")) for r in csv_rows] == flattened

    def test_universes_formats_agree(self):
        scenario = parse_scenario(bundled("partial_overlap.json"))
        payload = json.loads(render_universes(scenario, "json"))
        assert payload["partition"] == {"offered_only": ["a"],
                                        "requested_only": ["c"],
                                        "matched": ["b"]}
        csv_rows = [r.split(",") for r in
                    render_universes(scenario, "csv").splitlines()[1:]]
        assert ["partition.offered_only", "a"] in csv_rows
        assert ["partition.requested_only", "c"] in csv_rows
        assert ["partition.matched", "b"] in csv_rows

    def test_utilities_render_cardinal_as_integers(self):
        scenario = parse_scenario(bundled("crisp_pair.json"))
        text = render_utilities(scenario, "cardinal", "csv")
        rows = [r.split(",") for r in text.splitlines()[1:]]
        assert ["p", "m", "1"] in rows
        assert ["q", "m", "3"] in rows

    def test_precision_flag_changes_digits(self):
        scenario = parse_scenario(bundled("weighted_split.json"))
        text = render_utilities(scenario, "fuzzy", "csv", precision=2)
        assert "0.60" in text and "0.600000" not in text

    def test_validation_rendering(self):
        report = validate_scenario((INVALID_DIR / "empty_offers.json").read_text())
        table = render_validation(report, "table")
        assert table.startswith("INVALID")
        payload = json.loads(render_validation(report, "json"))
        assert payload["ok"] is False and payload["errors"] >= 1
        csv_text = render_validation(report, "csv")
        assert csv_text.splitlines()[0] == "severity,location,message"


# text that json escapes and csv quotes, among any other characters
ESCAPED_TEXT = st.text(st.one_of(
    st.sampled_from(list(',"\\\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d537\U0001f600')),
    st.characters()), max_size=8)
# tokens: printable and without whitespace, but with a comma, a quote, a
# backslash or a non-ASCII or astral character
ESCAPED_TOKEN = st.text(st.sampled_from(list(',"\\a\u00e9\U0001d537')),
                        min_size=1, max_size=3)
PAYLOADS = st.recursive(
    st.one_of(ESCAPED_TEXT, st.booleans(), st.integers()),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(ESCAPED_TEXT, children, max_size=4)),
    max_leaves=24)


def csv_writer_text(header, rows) -> str:
    """The reference: what ``csv.writer`` writes for ``header`` and ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@st.composite
def escaped_scenarios(draw):
    """A valid weighted scenario whose objectives and ids are ESCAPED_TOKENs."""
    tokens = st.lists(ESCAPED_TOKEN, min_size=1, max_size=4, unique=True)
    universe = draw(tokens)
    members = st.lists(st.sampled_from(universe), min_size=1, unique=True)
    weights = st.sampled_from([1, 0.5, 0.25, 0.125])
    doc = {"universe": universe,
           "alternatives": [{"id": alt_id, "offers": draw(members)}
                            for alt_id in draw(tokens)],
           "individuals": [{"id": ind_id, "membership": {
               token: draw(weights) for token in draw(members)}}
               for ind_id in draw(tokens)]}
    return parse_scenario(json.dumps(doc))


class TestWritersMatchLibraryOracles:
    """The json and csv writers give what ``json.dumps(indent=2)`` and
    ``csv.writer`` give, on any payload and on ids that need escaping."""

    @settings(max_examples=300, deadline=None)
    @given(doc=scenario_documents(), measure=st.sampled_from(list(UtilityMeasure)),
           precision=st.integers(0, 18))
    def test_tier_utilities_equal_format_utility(self, doc, measure, precision):
        if measure is not UtilityMeasure.FUZZY:
            doc["individuals"] = [
                {"id": e["id"], "requires": e.get("requires")
                 or [token for token, weight in e["membership"].items() if weight]}
                for e in doc["individuals"]]
        result = compute_pipeline(parse_scenario(json.dumps(doc)), measure)
        assert [tier["utility"] for tier in _ranking_section(result, precision)] == [
            format_utility(tier.value, precision) for tier in result.ranking.tiers]

    def test_tier_utilities_read_the_tiers_alone(self):
        # tiers over unrelated denominators, not from the result's social row
        u = Universe(("a", "b"))
        scenario = Scenario(Environment((Alternative("x", u.subset(["a"])),)),
                            Society((Individual.crisp("p", u, ["a"]),)))
        result = compute_pipeline(scenario, UtilityMeasure.NORMALIZED)
        values = [Fraction(5, 3), Fraction(1, 2), Fraction(1, 7), Fraction(0)]
        result = PipelineResult(
            result.scenario, result.opportunity, result.exigence, result.partition,
            result.process, result.social, Ranking(tuple(
                RankingTier(value, (f"t{i}",))
                for i, value in enumerate(values))))
        assert [tier["utility"] for tier in _ranking_section(result, 4)] == [
            "1.6667", "0.5000", "0.1429", "0.0000"]

    @settings(max_examples=400, deadline=None)
    @given(payload=PAYLOADS)
    @example(payload={})
    @example(payload=[])
    @example(payload={"a": {}, "b": [], "c": [{}, []], "d": [True, 0, False, 1]})
    @example(payload={"values": {"x\"": "1", "\\y": "\U0001d537"}, "ok": False})
    def test_json_writer_equals_json_dumps(self, payload):
        assert _json_text(payload) == json.dumps(payload, indent=2) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(scenario=escaped_scenarios())
    def test_csv_renderers_equal_csv_writer(self, scenario):
        result = compute_pipeline(scenario, "fuzzy")
        payload = json.loads(render_report(result, "json"))
        profiles = [(p["individual"], alt_id, value)
                    for p in payload["profiles"]
                    for alt_id, value in p["values"].items()]
        social = payload["social_profile"]["values"].items()
        ranked = [(str(tier["tier"]), tier["utility"], alt_id)
                  for tier in payload["ranking"]
                  for alt_id in tier["alternatives"]]
        universes = [(name, token)
                     for name, key in (("universe", "universe"),
                                       ("opportunity", "opportunity_universe"),
                                       ("exigence", "exigence_universe"))
                     for token in payload[key]]
        universes += [(f"partition.{part}", token)
                      for part, members in payload["partition"].items()
                      for token in members]
        assert render_report(result, "csv") == csv_writer_text(
            ("section", "individual", "alternative", "value", "tier"),
            [("profile", *row, "") for row in profiles]
            + [("social", "", alt_id, value, "") for alt_id, value in social]
            + [("rank", "", alt_id, value, tier) for tier, value, alt_id in ranked])
        assert render_utilities(scenario, "fuzzy", "csv") == csv_writer_text(
            ("individual", "alternative", "value"), profiles)
        assert render_ranking(result, "csv") == csv_writer_text(
            ("tier", "value", "alternative"), ranked)
        assert render_universes(scenario, "csv") == csv_writer_text(
            ("set", "objective"), universes)

    @settings(max_examples=300, deadline=None)
    @given(findings=st.lists(st.builds(
        Finding, st.sampled_from([ERROR, WARNING]), ESCAPED_TEXT, ESCAPED_TEXT),
        max_size=4))
    def test_validation_csv_equals_csv_writer(self, findings):
        report = ValidationReport(tuple(findings))
        assert render_validation(report, "csv") == csv_writer_text(
            ("severity", "location", "message"),
            [(f.severity, f.location, f.message) for f in findings])
        assert render_validation(report, "json") == json.dumps({
            "ok": report.ok, "errors": len(report.errors),
            "warnings": len(report.warnings),
            "findings": [{"severity": f.severity, "location": f.location,
                          "message": f.message} for f in findings]},
            indent=2) + "\n"


@pytest.mark.parametrize("name", ["crisp_pair.json", "weighted_split.json",
                                  "partial_overlap.json"])
def test_bundled_scenarios_match_schema(name):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((ROOT / "schema" / "scenario.schema.json").read_text())
    jsonschema.validate(json.loads(bundled(name)), schema)
