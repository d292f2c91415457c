import random
from fractions import Fraction
from math import lcm

import pytest

from setchoice import (
    AGGREGATORS,
    Alternative,
    Environment,
    EvaluationProcess,
    Individual,
    IndividualProfile,
    LengthMismatch,
    NonCrispIndividual,
    Ranking,
    ScenarioError,
    SocialProfile,
    Society,
    Universe,
    UtilityMeasure,
    ZeroMembershipMass,
    build_process,
    evaluate,
    get_aggregator,
    individual_profile,
    rank,
)
from setchoice._core import encode
from setchoice.evaluation import exact_mean

from _gen import oracle_mean, oracle_ranking, random_scenario_parts


@pytest.fixture
def greek():
    return Universe(("alpha", "beta", "gamma"))


@pytest.fixture
def reference(greek):
    """One all-offering alternative, one modest and one demanding individual."""
    env = Environment((Alternative("m", greek.subset(["alpha", "beta", "gamma"])),))
    soc = Society((Individual.crisp("p", greek, ["alpha"]),
                   Individual.crisp("q", greek, ["alpha", "beta", "gamma"])))
    return greek, env, soc


def make_social(values, measure=UtilityMeasure.NORMALIZED, aggregator="mean"):
    """A social profile of ``values``, over the lcm of their denominators."""
    ratios = [Fraction(v) for v in values]
    den = lcm(*(r.denominator for r in ratios))
    return SocialProfile(
        nums=tuple(r.numerator * (den // r.denominator) for r in ratios),
        den=den, measure=measure, aggregator=aggregator)


def mean_oracle_edge_cases():
    """(measure, scenario parts) that stress the integer-row mean."""
    u = Universe(tuple(f"g{i}" for i in range(6)))
    env = Environment((Alternative("lo", u.subset(["g0"])),
                       Alternative("mid", u.subset(["g0", "g2", "g4"])),
                       Alternative("all", u.subset(u.objectives))))
    # weights far beyond 64-bit once scaled to one integer denominator
    huge = Society((
        Individual("p", u, {"g0": Fraction(1, 10 ** 20), "g1": Fraction(1, 3)}),
        Individual("q", u, {"g2": Fraction(7, 10 ** 21), "g4": Fraction(1)}),
        Individual("r", u, {"g0": Fraction(1, 2)})))
    assert not encode(u, env, huge).int64_safe
    # supports of sizes 1..6, so every row has its own denominator
    nested = Society(tuple(Individual.crisp(f"n{k}", u, u.objectives[:k])
                           for k in range(1, 7)))
    assert len({len(ind.support) for ind in nested.individuals}) == 6
    # cardinal counts: above 1 for "mid"/"all", and all within [0, 1]
    singles = Society(tuple(Individual.crisp(f"s{k}", u, [t])
                            for k, t in enumerate(u.objectives)))
    return [("fuzzy", (u, env, huge)), ("normalized", (u, env, nested)),
            ("fuzzy", (u, env, nested)), ("cardinal", (u, env, nested)),
            ("cardinal", (u, env, singles))]


class TestIndividualProfile:
    def test_cardinal_single_alternative(self, reference):
        u, env, soc = reference
        profile = individual_profile("cardinal", env, soc.individuals[0], u)
        assert profile.values == (1,)
        profile = individual_profile("cardinal", env, soc.individuals[1], u)
        assert profile.values == (3,)

    def test_subset_and_disjoint_extremes(self, greek):
        env = Environment((Alternative("a1", greek.subset(["alpha"])),
                           Alternative("a2", greek.subset(["beta"]))))
        ind = Individual.crisp("v", greek, ["alpha"])
        profile = individual_profile("normalized", env, ind, greek)
        assert profile.values == (Fraction(1), Fraction(0))

    def test_weighted_profile(self):
        u = Universe(("a", "b", "c", "d"))
        env = Environment((Alternative("a1", u.subset(["a", "c"])),
                           Alternative("a2", u.subset(["b", "d"]))))
        ind = Individual("v", u, {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1})
        profile = individual_profile("fuzzy", env, ind, u)
        assert profile.values == (Fraction(3, 5), Fraction(2, 5))

    def test_measure_error_names_alternative_and_individual(self, greek):
        env = Environment((Alternative("first", greek.subset(["alpha"])),))
        weighted = Individual("w", greek, {"alpha": 0.5})
        with pytest.raises(NonCrispIndividual) as exc_info:
            individual_profile("cardinal", env, weighted, greek)
        assert exc_info.value.individual_id == "w"
        assert exc_info.value.alternative_id == "first"


class TestBuildProcess:
    def test_reference_scenario_normalized(self, reference):
        u, env, soc = reference
        process = build_process("normalized", "mean", env, soc, u)
        assert [p.values for p in process.profiles] == [(Fraction(1),), (Fraction(1),)]
        assert [p.individual_id for p in process.profiles] == ["p", "q"]
        assert process.aggregator.name == "mean"

    def test_single_individual(self, greek):
        env = Environment((Alternative("m", greek.subset(["alpha"])),))
        soc = Society((Individual.crisp("p", greek, ["alpha"]),))
        process = build_process("fuzzy", "mean", env, soc, greek)
        assert len(process.profiles) == 1

    def test_zero_mass_error_names_individual(self, reference):
        u, env, soc = reference
        soc.individuals[1]._mask, soc.individuals[1]._weights = 0, ()
        with pytest.raises(ZeroMembershipMass) as exc_info:
            build_process("fuzzy", "mean", env, soc, u)
        assert exc_info.value.individual_id == "q"
        assert exc_info.value.alternative_id == "m"

    def test_matches_reference_path(self):
        rng = random.Random(301)
        for _ in range(100):
            u, env, soc = random_scenario_parts(rng)
            for measure in (UtilityMeasure.FUZZY,):
                process = build_process(measure, "mean", env, soc, u)
                for ind, profile in zip(soc.individuals, process.profiles):
                    assert profile == individual_profile(measure, env, ind, u)

    def test_matches_reference_path_crisp_measures(self):
        rng = random.Random(302)
        for _ in range(100):
            u, env, soc = random_scenario_parts(rng, crisp=True)
            for measure in (UtilityMeasure.CARDINAL, UtilityMeasure.NORMALIZED):
                process = build_process(measure, "mean", env, soc, u)
                for ind, profile in zip(soc.individuals, process.profiles):
                    assert profile == individual_profile(measure, env, ind, u)

    def test_universe_mismatch_rejected(self, reference):
        u, env, soc = reference
        other = Universe(("alpha", "beta", "gamma", "delta"))
        with pytest.raises(ScenarioError):
            build_process("fuzzy", "mean", env, soc, other)

    def test_process_invariants(self, reference):
        u, env, soc = reference
        good = build_process("normalized", "mean", env, soc, u)
        with pytest.raises(LengthMismatch):
            EvaluationProcess(env, soc, good.profiles[:1], good.aggregator,
                              good.measure)
        short = IndividualProfile("p", ())
        with pytest.raises(LengthMismatch):
            EvaluationProcess(env, soc, (short, good.profiles[1]),
                              good.aggregator, good.measure)

    @pytest.mark.parametrize("length", [40, 5000])
    def test_profile_ids_are_quoted_briefly(self, greek, length):
        def shown(text):
            return (f"'{text}'" if len(text) <= 40
                    else f"'{text[:40]}'... ({len(text)} characters)")
        name, stray = "p" * length, "q" * length
        env = Environment((Alternative("m", greek.subset(["alpha"])),))
        soc = Society((Individual.crisp(name, greek, ["alpha"]),))
        good = build_process("cardinal", "mean", env, soc, greek)
        for profiles, message in [
            ((IndividualProfile(stray, (1,)),),
             f"profile order disagrees with society order at {shown(stray)}"),
            ((IndividualProfile(name, ()),),
             f"profile of {shown(name)} has 0 values for 1 alternatives"),
        ]:
            with pytest.raises(ScenarioError) as exc:
                EvaluationProcess(env, soc, profiles, good.aggregator,
                                  good.measure)
            assert str(exc.value) == message
            assert len(str(exc.value)) < 200


class TestEvaluate:
    def test_single_individual_is_identity(self, greek):
        env = Environment((Alternative("a1", greek.subset(["alpha"])),
                           Alternative("a2", greek.subset(["beta"]))))
        soc = Society((Individual.crisp("p", greek, ["alpha", "beta"]),))
        process = build_process("normalized", "mean", env, soc, greek)
        social = evaluate(process)
        assert social.values == process.profiles[0].values

    def test_symmetric_profiles_average_to_half(self, greek):
        env = Environment((Alternative("a1", greek.subset(["alpha"])),
                           Alternative("a2", greek.subset(["beta"]))))
        soc = Society((Individual.crisp("p", greek, ["alpha"]),
                       Individual.crisp("q", greek, ["beta"])))
        process = build_process("normalized", "mean", env, soc, greek)
        assert [p.values for p in process.profiles] == [
            (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
        assert evaluate(process).values == (Fraction(1, 2), Fraction(1, 2))

    def test_reference_scenario_social_profile(self, reference):
        u, env, soc = reference
        process = build_process("normalized", "mean", env, soc, u)
        expected = oracle_mean([Fraction(1), Fraction(1)])
        assert evaluate(process).values == (expected,) == (Fraction(1),)

    def test_matches_mean_oracle(self):
        rng = random.Random(303)
        cases = [("fuzzy", random_scenario_parts(rng, max_alternatives=6,
                                                 max_individuals=6))
                 for _ in range(150)]
        cases += mean_oracle_edge_cases()
        for measure, (u, env, soc) in cases:
            process = build_process(measure, "mean", env, soc, u)
            social = evaluate(process)
            for m in range(env.size):
                column = [p.values[m] for p in process.profiles]
                assert social.values[m] == oracle_mean(column)
            assert social.out_of_domain == any(
                v < 0 or v > 1 for p in process.profiles for v in p.values)

    def test_mean_within_bounds(self):
        rng = random.Random(304)
        for _ in range(150):
            u, env, soc = random_scenario_parts(rng)
            process = build_process("fuzzy", "mean", env, soc, u)
            social = evaluate(process)
            for m in range(env.size):
                column = [p.values[m] for p in process.profiles]
                assert min(column) <= social.values[m] <= max(column)

    def test_anonymity(self):
        rng = random.Random(305)
        for _ in range(100):
            u, env, soc = random_scenario_parts(rng)
            order = list(range(soc.size))
            rng.shuffle(order)
            shuffled = Society(tuple(soc.individuals[i] for i in order))
            a = evaluate(build_process("fuzzy", "mean", env, soc, u))
            b = evaluate(build_process("fuzzy", "mean", env, shuffled, u))
            assert a.values == b.values

    def test_duplication_invariance(self):
        rng = random.Random(306)
        for _ in range(100):
            u, env, soc = random_scenario_parts(rng)
            doubled = Society(soc.individuals + tuple(
                Individual(f"{ind.id}_copy", u, ind.membership)
                for ind in soc.individuals))
            a = evaluate(build_process("fuzzy", "mean", env, soc, u))
            b = evaluate(build_process("fuzzy", "mean", env, doubled, u))
            assert a.values == b.values
            assert a == b

    def test_cardinal_flags_out_of_domain(self, reference):
        u, env, soc = reference
        social = evaluate(build_process("cardinal", "mean", env, soc, u))
        assert social.out_of_domain  # q scores 3 on m
        assert social.values == (Fraction(2),)
        normalized = evaluate(build_process("normalized", "mean", env, soc, u))
        assert not normalized.out_of_domain


class TestAggregators:
    def test_registry_contains_mean_only(self):
        assert sorted(AGGREGATORS) == ["mean"]

    def test_unknown_aggregator(self):
        with pytest.raises(ScenarioError, match="unknown aggregator"):
            get_aggregator("median")

    def test_mean_stays_within_input_range(self):
        rng = random.Random(307)
        for _ in range(200):
            values = [Fraction(rng.randint(0, 100), 100)
                      for _ in range(rng.randint(1, 9))]
            nums, den = exact_mean([(v.numerator,) for v in values],
                                   [v.denominator for v in values])
            assert min(values) <= Fraction(nums[0], den) <= max(values)


class TestRank:
    def test_distinct_values_forced_sort(self, greek):
        env = Environment((Alternative("a1", greek.subset(["alpha"])),
                           Alternative("a2", greek.subset(["beta"])),
                           Alternative("a3", greek.subset(["gamma"]))))
        social = make_social([Fraction(2, 10), Fraction(8, 10), Fraction(5, 10)])
        ranking = rank(social, env)
        assert [tier.ids for tier in ranking.tiers] == [("a2",), ("a3",), ("a1",)]
        values = [tier.value for tier in ranking.tiers]
        assert values == sorted(values, reverse=True)

    def test_single_tie_group(self, greek):
        env = Environment((Alternative("a1", greek.subset(["alpha"])),
                           Alternative("a2", greek.subset(["beta"]))))
        ranking = rank(make_social([Fraction(1, 2), Fraction(1, 2)]), env)
        assert [tier.ids for tier in ranking.tiers] == [("a1", "a2")]

    def test_matches_sort_oracle(self, greek):
        rng = random.Random(308)
        for _ in range(150):
            count = rng.randint(1, 3)
            tokens = ["alpha", "beta", "gamma"][:count]
            env = Environment(tuple(
                Alternative(f"x{i}", greek.subset([t]))
                for i, t in enumerate(tokens)))
            values = [Fraction(rng.randint(0, 5), 5) for _ in range(count)]
            ranking = rank(make_social(values), env)
            assert [list(t.ids) for t in ranking.tiers] == oracle_ranking(
                env.ids, values)

    def test_is_permutation_of_environment(self):
        rng = random.Random(309)
        for _ in range(150):
            u, env, soc = random_scenario_parts(rng)
            social = evaluate(build_process("fuzzy", "mean", env, soc, u))
            ranking = rank(social, env)
            assert sorted(ranking.ordered_ids) == sorted(env.ids)
            seen = [id_ for tier in ranking.tiers for id_ in tier.ids]
            assert len(seen) == len(set(seen))

    def test_scale_invariance_of_tier_structure(self):
        rng = random.Random(310)
        for _ in range(100):
            u, env, soc = random_scenario_parts(rng)
            process = build_process("fuzzy", "mean", env, soc, u)
            base = evaluate(process)
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled_profiles = tuple(
                IndividualProfile(p.individual_id,
                                  tuple(v * scale for v in p.values))
                for p in process.profiles)
            scaled_process = EvaluationProcess(env, soc, scaled_profiles,
                                               process.aggregator, process.measure)
            scaled = evaluate(scaled_process)
            assert scaled.values == tuple(v * scale for v in base.values)
            assert ([t.ids for t in rank(base, env).tiers]
                    == [t.ids for t in rank(scaled, env).tiers])

    def test_lexicographic_inside_tiers(self, greek):
        env = Environment((Alternative("zz", greek.subset(["alpha"])),
                           Alternative("aa", greek.subset(["beta"]))))
        ranking = rank(make_social([Fraction(1, 2), Fraction(1, 2)]), env)
        assert ranking.tiers[0].ids == ("aa", "zz")

    def test_length_mismatch(self, greek):
        env = Environment((Alternative("a1", greek.subset(["alpha"])),))
        with pytest.raises(LengthMismatch):
            rank(make_social([Fraction(1), Fraction(0)]), env)

    def test_exact_values_never_group_approximately(self, greek):
        env = Environment((Alternative("a1", greek.subset(["alpha"])),
                           Alternative("a2", greek.subset(["beta"]))))
        close = make_social([Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**12)])
        assert len(rank(close, env).tiers) == 2
