"""The frozen-record contract of every public value class, and the modules
importing the CLI loads."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import setchoice
from setchoice import (
    Alternative,
    Environment,
    EvaluationProcess,
    Finding,
    Individual,
    IndividualProfile,
    ObjectiveSet,
    PipelineResult,
    Ranking,
    RankingTier,
    Scenario,
    SocialProfile,
    Society,
    Universe,
    UniversePartition,
    UtilityMeasure,
    ValidationReport,
    build_process,
    compute_pipeline,
    evaluate,
    parse_scenario,
    partition_universe,
    rank,
)
from setchoice._core.encode import EncodedScenario, encode
from setchoice._record import Record

U = "Universe(objectives=('a', 'b'))"
ENV = f"Environment(universe={U}, ids=('x', 'y'), masks=(1, 3))"
SOC = (f"Society(universe={U}, ids=('p', 'q'), masks=(1, 3), "
       "weights=((1,), (2, 1)), scales=(1, 4))")
ENC = ("EncodedScenario(objective_count=2, offer_masks=(1, 3), "
       "support_masks=(1, 3), support_weights=((1,), (2, 1)), totals=(1, 3))")
PROCESS = (f"EvaluationProcess(environment={ENV}, society={SOC}, "
           f"measure=<UtilityMeasure.FUZZY: 'fuzzy'>, encoding={ENC})")


def parts():
    """A two-objective universe, its environment and its society."""
    u = Universe(("a", "b"))
    env = Environment((Alternative("x", u.subset(["a"])),
                       Alternative("y", u.full())))
    soc = Society((Individual.crisp("p", u, ["a"]),
                   Individual("q", u, {"a": "1/2", "b": "1/4"})))
    return u, env, soc


def objective_set():
    u, _, _ = parts()
    return ObjectiveSet(u, 1)


def partition():
    _, env, soc = parts()
    return partition_universe(env, soc)


def individual_profile():
    return IndividualProfile("p", (1, Fraction(1, 2)))


def social_profile():
    return SocialProfile((1,), 2)


def ranking_tier():
    return RankingTier(Fraction(1, 2), ("x",))


def ranked_tiers():
    """The tiers ``rank`` builds over ``parts()`` under ``fuzzy``: ``y`` at
    6/6 and ``x`` at 5/6, each over the social denominator 6."""
    _, env, soc = parts()
    return rank(evaluate(build_process("fuzzy", env, soc)),
                env).tiers


def scenario():
    return Scenario(*parts()[1:])


def process():
    _, env, soc = parts()
    return build_process("fuzzy", env, soc)


#: (class, factory of an instance, its repr: as the dataclass wrote it,
#: and ``Individual``'s own)
RECORDS = [
    (Universe, lambda: parts()[0], U),
    (ObjectiveSet, objective_set, f"ObjectiveSet(universe={U}, mask=1)"),
    (UniversePartition, partition,
     f"UniversePartition(offered_only=ObjectiveSet(universe={U}, mask=0), "
     f"requested_only=ObjectiveSet(universe={U}, mask=0), "
     f"matched=ObjectiveSet(universe={U}, mask=3))"),
    (Alternative, lambda: parts()[1].alternatives[0],
     f"Alternative(id='x', offers=ObjectiveSet(universe={U}, mask=1))"),
    (Environment, lambda: parts()[1], ENV),
    (Individual, lambda: parts()[2].individuals[1],
     "Individual('q', {'a': '1/2', 'b': '1/4'})"),
    (Society, lambda: parts()[2], SOC),
    (IndividualProfile, individual_profile,
     "IndividualProfile(individual_id='p', nums=(2, 1), den=2, integral=False)"),
    (SocialProfile, social_profile,
     "SocialProfile(nums=(1,), den=2, out_of_domain=False)"),
    (RankingTier, ranking_tier,
     "RankingTier(value=Fraction(1, 2), ids=('x',))"),
    (Ranking, lambda: Ranking((ranking_tier(),)),
     "Ranking(tiers=(RankingTier(value=Fraction(1, 2), ids=('x',)),))"),
    (EvaluationProcess, process, PROCESS),
    (EncodedScenario, lambda: encode(*parts()[1:]), ENC),
    (Finding, lambda: Finding("error", "$", "m"),
     "Finding(severity='error', location='$', message='m')"),
    (ValidationReport, lambda: ValidationReport((Finding("warning", "$.a", "n"),)),
     "ValidationReport(findings=(Finding(severity='warning', location='$.a', "
     "message='n'),))"),
    (Scenario, scenario,
     f"Scenario(environment={ENV}, society={SOC})"),
    (PipelineResult, lambda: compute_pipeline(scenario(), "fuzzy"),
     f"PipelineResult(scenario=Scenario(environment={ENV}, "
     f"society={SOC}), opportunity=ObjectiveSet(universe={U}, mask=3), "
     f"exigence=ObjectiveSet(universe={U}, mask=3), partition=UniversePartition("
     f"offered_only=ObjectiveSet(universe={U}, mask=0), "
     f"requested_only=ObjectiveSet(universe={U}, mask=0), "
     f"matched=ObjectiveSet(universe={U}, mask=3)), process={PROCESS}, "
     "social=SocialProfile(nums=(5, 6), den=6, out_of_domain=False), "
     "ranking=Ranking("
     "tiers=(RankingTier(value=Fraction(1, 1), ids=('y',)), "
     "RankingTier(value=Fraction(5, 6), ids=('x',)))))"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def field_values(record):
    return tuple(map(record.__dict__.__getitem__, type(record)._fields))


@pytest.mark.parametrize("cls,make,expected", RECORDS, ids=IDS)
class TestRecordContract:
    def test_repr_is_the_dataclass_repr(self, cls, make, expected):
        record = make()
        assert type(record) is cls
        assert repr(record) == expected

    def test_fields_are_frozen(self, cls, make, expected):
        record = make()
        for name in cls._fields + ("_bits", "new_attribute"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, name, None)
        for name in cls._fields:
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(record, name)
        assert repr(record) == expected

    def test_equality_and_hash_go_by_value_within_one_class(self, cls, make,
                                                           expected):
        first = make()
        # a class with its own __init__ takes other arguments than its fields
        twin = make() if "__init__" in cls.__dict__ else cls(*field_values(first))
        other = type("Other", (Record,), {"__annotations__": dict.fromkeys(
            cls._fields)})(*field_values(first))
        assert first == first and first != other and other != first
        assert first == twin and hash(first) == hash(twin)
        if cls is Individual:  # also by its stored weights
            assert hash(first) == hash(field_values(first) + (
                first._mask, first._weights, first._scale))
        elif cls is not IndividualProfile:  # equal over other denominators
            assert hash(first) == hash(field_values(first))

    def test_pickle_and_copy_round_trips_compare_equal(self, cls, make,
                                                      expected):
        record = make()
        pickled, copied = pickle.loads(pickle.dumps(record)), copy.copy(record)
        for twin in (pickled, copied):
            assert type(twin) is cls and repr(twin) == expected
        assert copied == record and pickled == record


class TestConstruction:
    def test_keywords_and_defaults(self):
        made = SocialProfile(den=2, nums=(1,))
        assert made == social_profile() and not made.out_of_domain
        assert SocialProfile((1,), 2, out_of_domain=True).out_of_domain
        assert Finding("error", message="m", location="$") == Finding(
            "error", "$", "m")

    @pytest.mark.parametrize("cls,args,kwargs", [
        (Finding, (), {}),
        (Finding, ("error", "$"), {}),
        (Finding, ("error", "$", "m", "extra"), {}),
        (Finding, ("error", "$", "m"), {"severity": "warning"}),
        (Finding, ("error", "$", "m"), {"line": 3}),
        (SocialProfile, ((1,), 2), {"measure": UtilityMeasure.FUZZY}),
        (RankingTier, (Fraction(1, 2),), {}),
        # the ``value`` property is no default
        (RankingTier, (), {"ids": ("x",)}),
    ])
    def test_missing_or_extra_arguments_raise_type_error(self, cls, args,
                                                         kwargs):
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)

    def test_of_stores_values_and_extras_and_runs_no_post_init(self):
        class Checked(Record):
            first: int
            second: str

            def __post_init__(self):
                raise AssertionError("__post_init__ ran")

        made = Checked._of(1, "b", _note=3)
        assert made.__dict__ == {"first": 1, "second": "b", "_note": 3}
        assert made == Checked._of(1, "b")
        assert repr(made).endswith("Checked(first=1, second='b')")
        with pytest.raises(AssertionError, match="__post_init__ ran"):
            Checked(1, "b")

    def test_a_cached_property_named_like_a_field_is_no_default(self):
        class Lazy(Record):
            size: int
            label: str = "x"

            @cached_property
            def size(self):
                raise AssertionError("the property was read")

        with pytest.raises(TypeError, match="'size'"):
            Lazy(label="y")
        assert (Lazy(3).size, Lazy(3).label) == (3, "x")
        assert Lazy(label="y", size=2) == Lazy(2, "y")

    def test_post_init_checks_positional_and_keyword_calls(self):
        u = Universe(("a",))
        assert ObjectiveSet(mask=1, universe=u) == ObjectiveSet(u, 1)
        assert Universe(["a", "b"]) == Universe(("a", "b"))
        assert Universe(["a", "b"]).objectives == ("a", "b")

    def test_universe_compares_by_objectives_alone(self):
        u = Universe(("a", "b"))
        assert "_bits" not in repr(u) and u._bits == {"a": 1, "b": 2}
        assert u == pickle.loads(pickle.dumps(u))
        assert pickle.loads(pickle.dumps(u))._bits == u._bits


class TestProcessEquality:
    @pytest.mark.parametrize("path", sorted(
        (Path(__file__).resolve().parents[1] / "scenarios").glob("*.json")),
        ids=lambda path: path.stem)
    def test_pipeline_results_compare_equal_and_survive_pickle(self, path):
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        crisp = set(scenario.society.scales) == {1}
        for measure in UtilityMeasure if crisp else [UtilityMeasure.FUZZY]:
            first, second = (compute_pipeline(scenario, measure)
                             for _ in range(2))
            assert first == second and hash(first) == hash(second)
            assert first.process is not second.process
            pickled = pickle.loads(pickle.dumps(first))
            assert pickled == first and hash(pickled) == hash(first)

    def test_hand_made_processes_compare_their_profiles(self):
        u, env, soc = parts()
        def made(last):
            profiles = (IndividualProfile("p", (1, 1)),
                        IndividualProfile("q", (Fraction(2, 3), last)))
            return EvaluationProcess(env, soc, profiles, UtilityMeasure.FUZZY)

        assert made(Fraction(1)) == made(Fraction(1))
        assert hash(made(Fraction(1))) == hash(made(Fraction(1)))
        assert made(Fraction(1)) != made(Fraction(1, 2))


class TestRankedTiers:
    @pytest.mark.parametrize("k,value,ratio", [(0, Fraction(1), (6, 6)),
                                               (1, Fraction(5, 6), (5, 6))])
    def test_compare_hash_print_and_round_trip_as_built_from_a_value(
            self, k, value, ratio):
        made, unread = ranked_tiers()[k], ranked_tiers()[k]
        public = RankingTier(value, made.ids)
        assert "value" not in made.__dict__ and made._ratio == ratio
        assert made == public and public == made
        assert hash(made) == hash(public)
        assert repr(made) == repr(public)
        pickled, copied = pickle.loads(pickle.dumps(unread)), copy.copy(unread)
        for twin in (pickled, copied):
            assert type(twin) is RankingTier and repr(twin) == repr(public)
            assert twin == public and hash(twin) == hash(public)


class TestCachedProperties:
    def test_each_fills_on_first_read(self):
        u, env, soc = parts()
        lazy = [
            (Society._of(u, soc.ids, soc.masks, soc.weights, soc.scales),
             "individuals"),
            (Environment._of(u, env.ids, env.masks), "alternatives"),
            (IndividualProfile.from_row("p", (1, 2), 2, False), "values"),
            (social_profile(), "values"),
            (encode(env, soc), "weights"),
            (process(), "profiles"),
            (ranked_tiers()[1], "value"),
        ]
        for record, name in lazy:
            assert name not in record.__dict__
            value = getattr(record, name)
            assert record.__dict__[name] is value is getattr(record, name)
        assert lazy[0][0].individuals == soc.individuals


def test_importing_the_cli_loads_no_dataclasses_inspect_or_numpy():
    # a fresh interpreter without site, so only setchoice's imports count,
    # that writes no bytecode into the source tree
    src = str(Path(setchoice.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import setchoice.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-E", "-B", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == []
