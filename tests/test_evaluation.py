import random
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import setchoice
from setchoice import (
    Alternative,
    Environment,
    EvaluationProcess,
    Individual,
    IndividualProfile,
    LengthMismatch,
    NonCrispIndividual,
    PipelineResult,
    Ranking,
    Scenario,
    ScenarioError,
    SocialProfile,
    Society,
    Universe,
    UtilityMeasure,
    ZeroMembershipMass,
    build_process,
    compute_pipeline,
    evaluate,
    individual_profile,
    parse_scenario,
    rank,
)
from setchoice import _core, evaluation
from setchoice._core import encode
from setchoice._core.encode import EncodedScenario
from setchoice.evaluation import (_mean_row, _pseudo_weights, _shares_two,
                                  exact_mean)
from setchoice.universe import bit_columns
from setchoice.scenario_io import render_ranking, render_report

from _golden import GOLDEN_DIR, ROOT
from _gen import (
    DENOMS,
    one_objective_document,
    oracle_mean,
    oracle_ranking,
    oracle_shares_two,
    random_scenario_parts,
    sparse_wide_document,
    token_pool,
)

MEASURES = ("cardinal", "normalized", "fuzzy")


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


def make_social(values):
    """A social profile of ``values``, over the lcm of their denominators."""
    ratios = [Fraction(v) for v in values]
    den = lcm(*(r.denominator for r in ratios))
    return SocialProfile(
        nums=tuple(r.numerator * (den // r.denominator) for r in ratios),
        den=den)


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
    assert not encode(env, huge).int64_safe
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


def many_limb_parts():
    """Fuzzy individuals whose weight totals T_i are twelve distinct numbers
    of about 21 bits, so L = lcm(T_i), and the pseudo-individual's weights,
    are several limbs wide."""
    u = Universe(tuple(f"g{i}" for i in range(4)))
    env = Environment((Alternative("a", u.subset(["g0"])),
                       Alternative("b", u.subset(["g1", "g3"])),
                       Alternative("c", u.subset(u.objectives))))
    # weights (q, 2, q) over scale 2q for odd q, so T_i = 2q + 2, and
    # (q/2, 1, q/2) over q for even q, so T_i = q + 1
    soc = Society(tuple(
        Individual(f"w{q}", u, {"g0": Fraction(1, 2), "g1": Fraction(1, q),
                                "g3": Fraction(1, 2)})
        for q in range(10 ** 6 + 1, 10 ** 6 + 13)))
    return u, env, soc


def one_individual_parts(measure):
    u = Universe(tuple(f"g{i}" for i in range(4)))
    env = Environment((Alternative("a", u.subset(["g0", "g1"])),
                       Alternative("b", u.subset(["g2"]))))
    weights = ({"g0": 1, "g1": 1, "g3": 1} if measure != "fuzzy" else
               {"g0": Fraction(1, 3), "g1": Fraction(7, 10 ** 21), "g3": 1})
    return u, env, Society((Individual("solo", u, weights),))


# weights from the files' two decimals to denominators far beyond int64,
# so that the row totals T_i are many and mostly distinct
wide_weights = st.one_of(
    st.sampled_from(DENOMS).flatmap(
        lambda den: st.integers(1, den).map(lambda num: Fraction(num, den))),
    st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(10 ** 6, 10 ** 24)))


@st.composite
def scenario_parts(draw, crisp):
    universe = Universe(token_pool(draw(st.integers(1, 7))))
    subsets = st.lists(st.sampled_from(universe.objectives), min_size=1,
                       unique=True)
    environment = Environment(tuple(
        Alternative(f"alt{m}", universe.subset(draw(subsets)))
        for m in range(draw(st.integers(1, 5)))))
    individuals = []
    for i in range(draw(st.integers(1, 7))):
        tokens = draw(subsets)
        individuals.append(
            Individual.crisp(f"p{i}", universe, tokens) if crisp else
            Individual(f"p{i}", universe,
                       {t: draw(wide_weights) for t in tokens}))
    return universe, environment, Society(tuple(individuals))


def assert_matches_kernel_mean(measure, env, soc):
    """evaluate's social row and out-of-domain flag equal exact_mean and
    the per-cell scan over the full kernel matrix, without reading a
    profile."""
    process = build_process(measure, env, soc)
    social = evaluate(process)
    assert "profiles" not in vars(process)
    nums, dens = _core.utility_matrix(encode(env, soc), measure)
    assert (social.nums, social.den) == exact_mean(nums, dens)
    assert social.out_of_domain == any(min(row) < 0 or max(row) > den
                                       for row, den in zip(nums, dens))


class TestIndividualProfile:
    def test_cardinal_single_alternative(self, reference):
        _, env, soc = reference
        profile = individual_profile("cardinal", env, soc.individuals[0])
        assert profile.values == (1,)
        profile = individual_profile("cardinal", env, soc.individuals[1])
        assert profile.values == (3,)

    def test_subset_and_disjoint_extremes(self, greek):
        env = Environment((Alternative("a1", greek.subset(["alpha"])),
                           Alternative("a2", greek.subset(["beta"]))))
        ind = Individual.crisp("v", greek, ["alpha"])
        profile = individual_profile("normalized", env, ind)
        assert profile.values == (Fraction(1), Fraction(0))

    def test_weighted_profile(self):
        u = Universe(("a", "b", "c", "d"))
        env = Environment((Alternative("a1", u.subset(["a", "c"])),
                           Alternative("a2", u.subset(["b", "d"]))))
        ind = Individual("v", u, {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1})
        profile = individual_profile("fuzzy", env, ind)
        assert profile.values == (Fraction(3, 5), Fraction(2, 5))

    def test_measure_error_names_alternative_and_individual(self, greek):
        env = Environment((Alternative("first", greek.subset(["alpha"])),))
        weighted = Individual("w", greek, {"alpha": 0.5})
        with pytest.raises(NonCrispIndividual) as exc_info:
            individual_profile("cardinal", env, weighted)
        assert exc_info.value.individual_id == "w"
        assert exc_info.value.alternative_id == "first"


class TestBuildProcess:
    def test_reference_scenario_normalized(self, reference):
        _, env, soc = reference
        process = build_process("normalized", env, soc)
        assert [p.values for p in process.profiles] == [(Fraction(1),), (Fraction(1),)]
        assert [p.individual_id for p in process.profiles] == ["p", "q"]
        assert process.measure is UtilityMeasure.NORMALIZED

    def test_single_individual(self, greek):
        env = Environment((Alternative("m", greek.subset(["alpha"])),))
        soc = Society((Individual.crisp("p", greek, ["alpha"]),))
        process = build_process("fuzzy", env, soc)
        assert len(process.profiles) == 1

    def test_zero_mass_error_names_individual(self, reference):
        _, env, soc = reference
        # the constructors refuse an empty support; the society holds the
        # columns of the individuals it was built from
        p, q = soc.individuals
        q = Individual._of(q.id, q.universe, _mask=0, _weights=(),
                           _scale=q._scale)
        soc = Society((p, q))
        with pytest.raises(ZeroMembershipMass) as exc_info:
            build_process("fuzzy", env, soc)
        assert exc_info.value.individual_id == "q"
        assert exc_info.value.alternative_id == "m"

    def test_matches_reference_path(self):
        rng = random.Random(301)
        for _ in range(100):
            _, env, soc = random_scenario_parts(rng)
            for measure in (UtilityMeasure.FUZZY,):
                process = build_process(measure, env, soc)
                for ind, profile in zip(soc.individuals, process.profiles):
                    assert profile == individual_profile(measure, env, ind)

    def test_matches_reference_path_crisp_measures(self):
        rng = random.Random(302)
        for _ in range(100):
            _, env, soc = random_scenario_parts(rng, crisp=True)
            for measure in (UtilityMeasure.CARDINAL, UtilityMeasure.NORMALIZED):
                process = build_process(measure, env, soc)
                for ind, profile in zip(soc.individuals, process.profiles):
                    assert profile == individual_profile(measure, env, ind)

    @pytest.mark.parametrize("measure", ["cardinal", "normalized"])
    def test_first_failing_individual_is_reported_per_pair(self, greek,
                                                           measure):
        env = Environment((Alternative("first", greek.subset(["alpha"])),
                           Alternative("second", greek.subset(["beta"]))))
        soc = Society((Individual.crisp("c", greek, ["alpha"]),
                       Individual("w1", greek, {"beta": 0.5}),
                       Individual("w2", greek, {"alpha": 0.25})))
        with pytest.raises(NonCrispIndividual) as built:
            build_process(measure, env, soc)
        with pytest.raises(NonCrispIndividual) as per_pair:
            individual_profile(measure, env, soc.individuals[1])
        assert str(built.value) == str(per_pair.value)
        assert (built.value.individual_id, built.value.alternative_id) == (
            "w1", "first")

    def test_profiles_are_built_on_first_read(self, reference):
        _, env, soc = reference
        process = build_process("cardinal", env, soc)
        assert process.encoding == encode(env, soc)
        assert "profiles" not in vars(process)
        profiles = process.profiles
        assert process.profiles is profiles
        assert [p.values for p in profiles] == [(1,), (3,)]
        hand_made = EvaluationProcess(env, soc, profiles, process.measure)
        assert hand_made.encoding is None
        assert hand_made.profiles == profiles

    def test_universe_mismatch_rejected(self, reference):
        _, env, soc = reference
        other = Universe(("alpha", "beta", "gamma", "delta"))
        other_env = Environment((Alternative("x", other.subset(["alpha"])),))
        other_soc = Society((Individual.crisp("p", other, ["alpha"]),))
        for environment, society in ((env, other_soc), (other_env, soc)):
            with pytest.raises(ScenarioError) as exc:
                build_process("fuzzy", environment, society)
            assert str(exc.value) == "environment and society use different universes"

    def test_process_invariants(self, reference):
        _, env, soc = reference
        good = build_process("normalized", env, soc)
        with pytest.raises(LengthMismatch):
            EvaluationProcess(env, soc, good.profiles[:1], good.measure)
        short = IndividualProfile("p", ())
        with pytest.raises(LengthMismatch):
            EvaluationProcess(env, soc, (short, good.profiles[1]),
                              good.measure)

    @pytest.mark.parametrize("length", [40, 5000])
    def test_profile_ids_are_quoted_briefly(self, greek, length):
        def shown(text):
            return (f"'{text}'" if len(text) <= 40
                    else f"'{text[:40]}'... ({len(text)} characters)")
        name, stray = "p" * length, "q" * length
        env = Environment((Alternative("m", greek.subset(["alpha"])),))
        soc = Society((Individual.crisp(name, greek, ["alpha"]),))
        good = build_process("cardinal", env, soc)
        for profiles, message in [
            ((IndividualProfile(stray, (1,)),),
             f"profile order disagrees with society order at {shown(stray)}"),
            ((IndividualProfile(name, ()),),
             f"profile of {shown(name)} has 0 values for 1 alternatives"),
        ]:
            with pytest.raises(ScenarioError) as exc:
                EvaluationProcess(env, soc, profiles, good.measure)
            assert str(exc.value) == message
            assert len(str(exc.value)) < 200


class TestEvaluate:
    def test_single_individual_is_identity(self, greek):
        env = Environment((Alternative("a1", greek.subset(["alpha"])),
                           Alternative("a2", greek.subset(["beta"]))))
        soc = Society((Individual.crisp("p", greek, ["alpha", "beta"]),))
        process = build_process("normalized", env, soc)
        social = evaluate(process)
        assert social.values == process.profiles[0].values

    def test_symmetric_profiles_average_to_half(self, greek):
        env = Environment((Alternative("a1", greek.subset(["alpha"])),
                           Alternative("a2", greek.subset(["beta"]))))
        soc = Society((Individual.crisp("p", greek, ["alpha"]),
                       Individual.crisp("q", greek, ["beta"])))
        process = build_process("normalized", env, soc)
        assert [p.values for p in process.profiles] == [
            (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
        assert evaluate(process).values == (Fraction(1, 2), Fraction(1, 2))

    def test_reference_scenario_social_profile(self, reference):
        _, env, soc = reference
        process = build_process("normalized", env, soc)
        expected = oracle_mean([Fraction(1), Fraction(1)])
        assert evaluate(process).values == (expected,) == (Fraction(1),)

    def test_matches_mean_oracle(self):
        rng = random.Random(303)
        cases = [("fuzzy", random_scenario_parts(rng, max_alternatives=6,
                                                 max_individuals=6))
                 for _ in range(150)]
        cases += mean_oracle_edge_cases()
        for measure, (_, env, soc) in cases:
            process = build_process(measure, env, soc)
            social = evaluate(process)
            for m in range(len(env)):
                column = [p.values[m] for p in process.profiles]
                assert social.values[m] == oracle_mean(column)
            assert social.out_of_domain == any(
                v < 0 or v > 1 for p in process.profiles for v in p.values)

    def test_mean_within_bounds(self):
        rng = random.Random(304)
        for _ in range(150):
            _, env, soc = random_scenario_parts(rng)
            process = build_process("fuzzy", env, soc)
            social = evaluate(process)
            for m in range(len(env)):
                column = [p.values[m] for p in process.profiles]
                assert min(column) <= social.values[m] <= max(column)

    def test_anonymity(self):
        rng = random.Random(305)
        for _ in range(100):
            _, env, soc = random_scenario_parts(rng)
            order = list(range(len(soc)))
            rng.shuffle(order)
            shuffled = Society(tuple(soc.individuals[i] for i in order))
            a = evaluate(build_process("fuzzy", env, soc))
            b = evaluate(build_process("fuzzy", env, shuffled))
            assert a.values == b.values

    def test_duplication_invariance(self):
        rng = random.Random(306)
        for _ in range(100):
            u, env, soc = random_scenario_parts(rng)
            doubled = Society(soc.individuals + tuple(
                Individual(f"{ind.id}_copy", u, ind.membership)
                for ind in soc.individuals))
            a = evaluate(build_process("fuzzy", env, soc))
            b = evaluate(build_process("fuzzy", env, doubled))
            assert a.values == b.values
            assert a == b

    def test_cardinal_flags_out_of_domain(self, reference):
        _, env, soc = reference
        social = evaluate(build_process("cardinal", env, soc))
        assert social.out_of_domain  # q scores 3 on m
        assert social.values == (Fraction(2),)
        normalized = evaluate(build_process("normalized", env, soc))
        assert not normalized.out_of_domain


@st.composite
def mask_sides(draw):
    """``(size, supports, offers)``: one to eight non-empty masks a side
    over ``size`` objectives."""
    size = draw(st.integers(1, 70))
    masks = st.lists(st.integers(1, (1 << size) - 1), min_size=1, max_size=8)
    return size, draw(masks), draw(masks)


class TestCardinalOutOfDomainFlag:
    """``evaluate`` flags a cardinal count above 1 by the per-objective
    union test, which visits each mask once instead of every pair."""

    @settings(max_examples=300, deadline=None)
    @given(sides=mask_sides())
    # the only sharing pair is found through a union of two offers per
    # objective
    @example(sides=(3, [0b100, 0b011, 0b100, 0b100], [0b011, 0b001, 0b010]))
    def test_union_test_equals_the_pair_scan(self, sides):
        size, supports, offers = sides
        assert _shares_two(supports, offers, size) == oracle_shares_two(
            supports, offers)

    def test_hostile_file_visits_each_mask_once(self, monkeypatch):
        scenario = parse_scenario(one_objective_document(1000))
        enc = encode(scenario.environment, scenario.society)
        assert not oracle_shares_two(enc.support_masks, enc.offer_masks)
        visited = []
        positions = evaluation.positions

        def counted(mask):
            visited.append(mask)
            return positions(mask)

        monkeypatch.setattr(evaluation, "positions", counted)
        social = compute_pipeline(scenario, "cardinal").social
        assert not social.out_of_domain
        # one visit per individual and per alternative, not 1000 x 1000 pairs
        assert len(visited) == 2000


class TestPseudoIndividualRow:
    @settings(max_examples=150, deadline=None)
    @given(measure=st.sampled_from(MEASURES), data=st.data())
    def test_matches_exact_mean_of_the_kernel_matrix(self, measure, data):
        _, env, soc = data.draw(scenario_parts(crisp=measure != "fuzzy"))
        assert_matches_kernel_mean(measure, env, soc)

    @pytest.mark.parametrize("measure, parts", mean_oracle_edge_cases()
                             + [("fuzzy", many_limb_parts())]
                             + [(m, one_individual_parts(m)) for m in MEASURES])
    def test_edge_cases(self, measure, parts):
        assert_matches_kernel_mean(measure, *parts[1:])

    def test_weights_span_several_limbs(self):
        u, env, soc = many_limb_parts()
        weights, _ = _pseudo_weights(UtilityMeasure.FUZZY, encode(env, soc))
        # the packed kernel's limb: R limbs of it stay below 2**64
        limb = 64 - len(u).bit_length()
        assert max(weights).bit_length() > 3 * limb

    @pytest.mark.parametrize("measure", ["cardinal", "normalized"])
    def test_crisp_groups_wider_than_a_byte(self, measure):
        u = Universe(token_pool(13))
        env = Environment((Alternative("lo", u.subset(u.objectives[:1])),
                           Alternative("hi", u.subset(u.objectives[8:]))))
        soc = Society(tuple(Individual.crisp(f"p{i}", u, u.objectives[i % 13:])
                            for i in range(40)))
        assert_matches_kernel_mean(measure, env, soc)


# (_COLUMN_ROWS, _COLUMN_SIZE, _FOLD_BITS) that force one way of counting
# the crisp mean's supports on every support-size group
LAYOUTS = {
    "columns": (0, 1 << 30, evaluation._FOLD_BITS),
    "packed": (1 << 30, 0, evaluation._FOLD_BITS),
    "packed, one support a fold": (1 << 30, 0, 8),
    "packed, full 16-bit folds": (1 << 30, 0, 8 * ((1 << 16) - 1)),
}


@contextmanager
def layout(name):
    rows, size, fold = LAYOUTS[name]
    with mock.patch.multiple(evaluation, _COLUMN_ROWS=rows, _COLUMN_SIZE=size,
                             _FOLD_BITS=fold):
        yield


def crisp_encoding(size, offers, supports):
    """The encoding of crisp ``supports`` and ``offers`` over ``size``
    objectives, built directly."""
    return EncodedScenario(size, tuple(offers), tuple(supports),
                           tuple((1,) * mask.bit_count() for mask in supports),
                           tuple(mask.bit_count() for mask in supports))


def column_popcount_weights(measure, enc):
    """``(W, L)`` of the crisp mean from each support-size group's
    ``bit_columns`` popcounts, one objective at a time."""
    groups = {}
    for mask, total in zip(enc.support_masks, enc.totals):
        groups.setdefault(1 if measure == "cardinal" else total, []).append(mask)
    common = lcm(*groups)
    weights = [0] * enc.objective_count
    for total, masks in groups.items():
        for p, column in enumerate(bit_columns(masks, enc.objective_count, 8)):
            weights[p] += common // total * column.bit_count()
    return weights, common


class TestCrispSupportCounts:
    """The crisp mean counts each support-size group's supports per
    objective by ``bit_columns`` or by ``packed_counts``, whichever the
    group's shape picks; both give the same ``(W, L)``."""

    @settings(max_examples=100, deadline=None)
    @given(measure=st.sampled_from(("cardinal", "normalized")),
           data=st.data())
    def test_every_layout_matches_popcounts_and_the_kernel_mean(self, measure,
                                                                 data):
        size = data.draw(st.integers(1, 150))
        masks = st.one_of(st.integers(1, (1 << size) - 1),
                          st.integers(0, size - 1).map(lambda p: 1 << p))
        supports = data.draw(st.lists(masks, min_size=1, max_size=150))
        offers = data.draw(st.lists(masks, min_size=1, max_size=6))
        enc = crisp_encoding(size, offers, supports)
        expected = column_popcount_weights(measure, enc)
        mean = exact_mean(*_core.utility_matrix(enc, measure))
        for name in LAYOUTS:
            with layout(name):
                measured = UtilityMeasure(measure)
                assert _pseudo_weights(measured, enc) == expected, name
                assert _mean_row(measured, enc) == mean, name

    @pytest.mark.parametrize("name", ["columns", "packed",
                                      "packed, full 16-bit folds"])
    @pytest.mark.parametrize("measure, supports, expected", [
        ("cardinal", (0b01,) * (1 << 16), ([1 << 16, 0], 1)),
        ("normalized", (0b01,) * (1 << 16), ([1 << 16, 0], 1)),
        ("cardinal", (0b01, 0b11) * (1 << 15), ([1 << 16, 1 << 15], 1)),
        ("normalized", (0b01, 0b11) * (1 << 15), ([3 << 15, 1 << 15], 2)),
    ])
    def test_a_count_of_two_to_the_sixteen(self, name, measure, supports,
                                           expected):
        """2**16 supports hold objective 0: one more than a 16-bit field
        holds, so the count takes two folds and a wider field."""
        enc = crisp_encoding(2, (0b01,), supports)
        with layout(name):
            assert _pseudo_weights(UtilityMeasure(measure), enc) == expected


class TestSparseWideScenarios:
    """Wide universes of sparse masks (ROADMAP item 15): the mean still
    equals the kernel's, and the crisp mean counts its supports in folds of
    at most ``_FOLD_BITS`` bit positions, so its peak stays flat while
    N * R grows."""

    @pytest.mark.parametrize("measure", MEASURES)
    def test_columns_of_several_fields_give_the_kernel_mean(self, measure):
        scenario = parse_scenario(sparse_wide_document(
            300, 60, 4, weighted=measure == "fuzzy"))
        assert_matches_kernel_mean(measure, scenario.environment,
                                   scenario.society)

    @pytest.mark.parametrize("measure", ["cardinal", "normalized"])
    def test_mean_peak_grows_with_individuals_times_objectives(self, measure):
        def peak(n):
            scenario = parse_scenario(sparse_wide_document(n, n, 4))
            process = build_process(measure, scenario.environment,
                                    scenario.society)
            tracemalloc.start()
            try:
                evaluate(process)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # R = N doubled: N * R grows 4x, N * R^2 8x
        at_600 = peak(600)
        assert at_600 < 6 * peak(300)
        # a fold's bit positions, not N * R: 0.44 MB at n = 600 (5.35 MB
        # through 128-bit objective columns)
        assert at_600 < 548_000


class TestKernelCalls:
    """Which kernel matrices and profiles a CLI verb's pipeline builds."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Row counts of every kernel call, and the profiles built."""
        seen = {"rows": [], "profiles": 0}
        kernel = _core.utility_matrix

        def counting_kernel(enc, measure):
            seen["rows"].append(enc.individual_count)
            return kernel(enc, measure)

        from_row, init = IndividualProfile.from_row, IndividualProfile.__init__

        def counting_from_row(cls, *args):
            seen["profiles"] += 1
            return from_row(*args)

        def counting_init(self, *args):
            seen["profiles"] += 1
            init(self, *args)

        monkeypatch.setattr(_core, "utility_matrix", counting_kernel)
        monkeypatch.setattr(IndividualProfile, "from_row",
                            classmethod(counting_from_row))
        monkeypatch.setattr(IndividualProfile, "__init__", counting_init)
        return seen

    @pytest.fixture(params=MEASURES)
    def scenario(self, request):
        rng = random.Random(f"kernel-calls:{request.param}")
        u, env, soc = random_scenario_parts(
            rng, max_universe=8, max_alternatives=6, max_individuals=1,
            crisp=request.param != "fuzzy")
        individuals = tuple(
            Individual(f"p{i}", u, soc.individuals[0].membership)
            for i in range(12))
        return request.param, Scenario(env, Society(individuals))

    def test_ranking_builds_no_profile_and_no_matrix(self, calls, scenario):
        measure, scenario = scenario
        for output_format in ("table", "json", "csv"):
            render_ranking(compute_pipeline(scenario, measure), output_format)
        assert calls["profiles"] == 0
        assert calls["rows"] and all(rows < 12 for rows in calls["rows"])

    def test_report_runs_the_matrix_once(self, calls, scenario):
        measure, scenario = scenario
        result = compute_pipeline(scenario, measure)
        for output_format in ("table", "json", "csv"):
            render_report(result, output_format)
        assert calls["rows"].count(12) == 1
        assert calls["profiles"] == 12


class TestAggregators:
    @pytest.mark.parametrize("measure", MEASURES)
    def test_hand_built_process_matches_the_kernel_path(self, measure,
                                                        reference):
        """``exact_mean`` over a hand-built process's rows equals
        ``_mean_row`` on the kernel-built one, out-of-domain flag included
        (the reference scenario's cardinal count of 3 is out of domain)."""
        rng = random.Random(306)
        cases = [reference, *(random_scenario_parts(rng, crisp=measure != "fuzzy")
                              for _ in range(40))]
        cases += [parts for name, parts in mean_oracle_edge_cases()
                  if name == measure]
        flagged = []
        for _, env, soc in cases:
            process = build_process(measure, env, soc)
            hand_built = EvaluationProcess(env, soc, process.profiles, measure)
            assert hand_built.encoding is None
            kernel, rows = evaluate(process), evaluate(hand_built)
            assert (rows.nums, rows.den, rows.out_of_domain) == (
                kernel.nums, kernel.den, kernel.out_of_domain)
            flagged.append(kernel.out_of_domain)
        assert flagged[0] == (measure == "cardinal")

    def test_the_aggregator_registry_is_gone(self):
        """The exact mean is the only aggregate: no registry, no
        extension point and no lookup by name is exported."""
        for name in ("Aggregator", "AGGREGATORS", "get_aggregator"):
            assert name not in setchoice.__all__
            assert not hasattr(setchoice, name)
            assert not hasattr(evaluation, name)

    def test_the_measure_is_stored_once(self, reference):
        """The measure lives on the process; neither the social profile
        nor the pipeline result keeps a copy of it or an aggregator name."""
        assert SocialProfile._fields == ("nums", "den", "out_of_domain")
        assert {"measure", "aggregator"}.isdisjoint(PipelineResult._fields)
        _, env, soc = reference
        process = build_process("cardinal", env, soc)
        assert process.measure is UtilityMeasure.CARDINAL
        assert evaluate(process) == SocialProfile((2,), 1, True)

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
            _, env, soc = random_scenario_parts(rng)
            social = evaluate(build_process("fuzzy", env, soc))
            ranking = rank(social, env)
            assert sorted(ranking.ordered_ids) == sorted(env.ids)
            seen = [id_ for tier in ranking.tiers for id_ in tier.ids]
            assert len(seen) == len(set(seen))

    def test_scale_invariance_of_tier_structure(self):
        rng = random.Random(310)
        for _ in range(100):
            _, env, soc = random_scenario_parts(rng)
            process = build_process("fuzzy", env, soc)
            base = evaluate(process)
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled_profiles = tuple(
                IndividualProfile(p.individual_id,
                                  tuple(v * scale for v in p.values))
                for p in process.profiles)
            scaled_process = EvaluationProcess(env, soc, scaled_profiles,
                                               process.measure)
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

    @pytest.mark.parametrize("output_format", ("table", "json", "csv"))
    def test_ranks_and_renders_without_a_fraction(self, monkeypatch,
                                                  output_format):
        def refuse(*args):
            raise AssertionError("a Fraction was built")

        scenario = parse_scenario(
            (ROOT / "scenarios" / "weighted_split.json").read_text())
        monkeypatch.setattr(evaluation, "Fraction", refuse)
        result = compute_pipeline(scenario, "fuzzy")
        expected = GOLDEN_DIR / f"weighted_split.rank.fuzzy.{output_format}.txt"
        assert render_ranking(result, output_format).encode() == (
            expected.read_bytes())
        monkeypatch.undo()
        social = result.social
        assert [tier.value for tier in result.ranking] == sorted(
            set(social.values), reverse=True)

    def test_exact_values_never_group_approximately(self, greek):
        env = Environment((Alternative("a1", greek.subset(["alpha"])),
                           Alternative("a2", greek.subset(["beta"]))))
        close = make_social([Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**12)])
        assert len(rank(close, env).tiers) == 2
