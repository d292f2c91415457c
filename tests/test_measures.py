import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setchoice
from setchoice import (
    Alternative,
    EmptyIndividual,
    Environment,
    Individual,
    NonCrispIndividual,
    ScenarioError,
    Society,
    Universe,
    UtilityMeasure,
    ZeroMembershipMass,
    build_process,
    cardinal_utility,
    fuzzy_utility,
    normalized_cardinal_utility,
    parse_scenario,
    utility,
)
from setchoice.literals import _plain_number, format_ratios

BEYOND_BOUND = ("number literal longer than 1000 characters or with "
                "|exponent| > 1000")

from _gen import (
    oracle_cardinal,
    oracle_fuzzy,
    oracle_normalized,
    random_crisp_individual,
    random_environment,
    random_fuzzy_individual,
    random_scenario_parts,
    random_universe,
)


@pytest.fixture
def greek():
    return Universe(("alpha", "beta", "gamma"))


@pytest.fixture
def offer_all(greek):
    return Alternative("m", greek.subset(["alpha", "beta", "gamma"]))


@pytest.fixture
def modest(greek):
    return Individual.crisp("p", greek, ["alpha"])


@pytest.fixture
def demanding(greek):
    return Individual.crisp("q", greek, ["alpha", "beta", "gamma"])


def gutted(individual):
    """A copy whose weights are empty, built past the constructor's checks,
    to reach the defensive error paths."""
    return Individual._of(individual.id, individual.universe, _mask=0,
                          _weights=(), _scale=individual._scale)


class TestCardinal:
    def test_two_individual_example(self, offer_all, modest, demanding):
        assert cardinal_utility(offer_all, modest) == 1
        assert cardinal_utility(offer_all, demanding) == 3

    def test_disjoint_sets(self, greek):
        alt = Alternative("m", greek.subset(["alpha"]))
        ind = Individual.crisp("v", greek, ["beta"])
        assert cardinal_utility(alt, ind) == 0

    def test_rejects_weighted_individual(self, greek, offer_all):
        fuzzy = Individual("w", greek, {"alpha": 0.5})
        with pytest.raises(NonCrispIndividual):
            cardinal_utility(offer_all, fuzzy)

    def test_empty_support_guard(self, greek, offer_all):
        with pytest.raises(EmptyIndividual):
            cardinal_utility(offer_all, gutted(Individual.crisp("v", greek, ["alpha"])))


class TestNormalizedCardinal:
    def test_satisfied_individuals_score_one(self, offer_all, modest, demanding):
        assert normalized_cardinal_utility(offer_all, modest) == Fraction(1)
        assert normalized_cardinal_utility(offer_all, demanding) == Fraction(1)

    def test_partial_overlap(self, greek):
        alt = Alternative("m", greek.subset(["alpha"]))
        ind = Individual.crisp("v", greek, ["alpha", "beta"])
        expected = oracle_normalized(["alpha"], ["alpha", "beta"])
        assert expected == Fraction(1, 2)
        assert normalized_cardinal_utility(alt, ind) == expected

    def test_rejects_weighted_individual(self, greek, offer_all):
        with pytest.raises(NonCrispIndividual):
            normalized_cardinal_utility(offer_all, Individual("w", greek, {"beta": 0.9}))

    def test_empty_support_guard(self, greek, offer_all):
        with pytest.raises(EmptyIndividual):
            normalized_cardinal_utility(
                offer_all, gutted(Individual.crisp("v", greek, ["alpha"])))


class TestFuzzy:
    def test_crisp_reduction_scores_one(self, greek, offer_all, demanding):
        assert fuzzy_utility(offer_all, demanding) == Fraction(1)
        assert (fuzzy_utility(offer_all, demanding)
                == normalized_cardinal_utility(offer_all, demanding))

    def test_weighted_share(self):
        u = Universe(("a", "b", "c", "d"))
        weights = {"a": Fraction(4, 10), "b": Fraction(3, 10),
                   "c": Fraction(2, 10), "d": Fraction(1, 10)}
        ind = Individual("v", u, weights)
        alt = Alternative("m", u.subset(["a", "c"]))
        expected = oracle_fuzzy(["a", "c"], weights, u.objectives)
        assert expected == Fraction(3, 5)
        assert fuzzy_utility(alt, ind) == expected

    def test_zero_weight_on_every_offer(self):
        u = Universe(("a", "b", "c"))
        ind = Individual("v", u, {"c": Fraction(1, 2)})
        alt = Alternative("m", u.subset(["a", "b"]))
        assert fuzzy_utility(alt, ind) == Fraction(0)

    def test_zero_mass_guard(self, greek, offer_all):
        emptied = gutted(Individual.crisp("v", greek, ["alpha"]))
        with pytest.raises(ZeroMembershipMass):
            fuzzy_utility(offer_all, emptied)


class TestDispatch:
    def test_normalized(self, greek, offer_all, modest):
        assert utility(UtilityMeasure.NORMALIZED, offer_all, modest) == Fraction(1)

    def test_cardinal_by_name(self, greek, offer_all, demanding):
        assert utility("cardinal", offer_all, demanding) == 3

    def test_error_path_passes_through(self, greek, offer_all):
        with pytest.raises(ZeroMembershipMass):
            utility("fuzzy", offer_all,
                    gutted(Individual.crisp("v", greek, ["alpha"])))

    def test_unknown_measure(self, greek, offer_all, modest):
        with pytest.raises(ValueError):
            utility("jaccard", offer_all, modest)


class TestConstruction:
    def test_membership_out_of_range(self, greek):
        with pytest.raises(ScenarioError, match="membership out of range"):
            Individual("v", greek, {"alpha": 1.5})
        with pytest.raises(ScenarioError, match="membership out of range"):
            Individual("v", greek, {"alpha": -0.25})

    def test_membership_must_be_numeric(self, greek):
        with pytest.raises(ScenarioError, match="must be a number"):
            Individual("v", greek, {"alpha": True})
        with pytest.raises(ScenarioError, match="must be a number"):
            Individual("v", greek, {"alpha": "high"})

    @pytest.mark.parametrize("literal,message", [
        ("1e999", "membership out of range: 'alpha' has value 1.00000e+999"),
        ("1e5000", f"membership of 'alpha': {BEYOND_BOUND}"),
        ("1e-3000000", f"membership of 'alpha': {BEYOND_BOUND}"),
        (10 ** 5000, f"membership of 'alpha': {BEYOND_BOUND}"),
        (10 ** 999, "membership out of range: 'alpha' has value 1.00000e+999"),
        (Fraction(1, 10 ** 1000), f"membership of 'alpha': {BEYOND_BOUND}"),
        (Fraction(1, 10 ** 999), None),
        (Decimal("1e-300000"), f"membership of 'alpha': {BEYOND_BOUND}"),
        (Decimal("1e-3000000"), f"membership of 'alpha': {BEYOND_BOUND}"),
        (Decimal("1" * 1001), f"membership of 'alpha': {BEYOND_BOUND}"),
        (Decimal("1e-1000"), None),
        (Decimal("NaN"), "membership of 'alpha' must be a number, got Decimal('NaN')"),
        ("x" * 2000, f"membership of 'alpha': {BEYOND_BOUND}"),
        ("x" * 999, "membership of 'alpha' must be a number, got "
                    f"'{'x' * 40}'... (999 characters)"),
        ("1.0000000001", "membership out of range: 'alpha' has value 1.0000000001"),
        (Decimal("-1e-1000"), "membership out of range: 'alpha' has value "
                              f"-0.{'0' * 37}... (1003 characters)"),
        (Fraction(3000001, 3000000),
         "membership out of range: 'alpha' has value 3000001/3000000"),
        (f"-0.{'0' * 990}1e-1000", "membership out of range: 'alpha' has "
                                   f"value -0.{'0' * 37}... (1994 characters)"),
        (Fraction(-1, 10 ** 999), "membership out of range: 'alpha' has value "
                                  f"-0.{'0' * 37}... (1002 characters)"),
        (Fraction(-1, 3 * 10 ** 998), "membership out of range: 'alpha' has "
                                      f"value -1/3{'0' * 36}... (1002 characters)"),
    ], ids=["1e999", "1e5000", "1e-3000000", "10**5000", "10**999",
            "Fraction(1,10**1000)", "Fraction(1,10**999)", "Decimal(1e-300000)",
            "Decimal(1e-3000000)", "Decimal(1001 digits)", "Decimal(1e-1000)",
            "Decimal(NaN)", "x*2000", "x*999", "1.0000000001", "Decimal(-1e-1000)",
            "Fraction(3000001,3000000)", "-1e-1991 (1000 characters)",
            "Fraction(-1,10**999)", "Fraction(-1,3*10**998)"])
    def test_number_literals_are_bounded_and_quoted_briefly(self, greek, literal,
                                                            message):
        if message is None:  # within the bound and in range
            assert Individual("v", greek, {"alpha": literal}).mu("alpha") == (
                Fraction(literal))
            return
        with pytest.raises(ScenarioError) as exc:
            Individual("v", greek, {"alpha": literal})
        assert str(exc.value) == message

    def test_factors_of_five_are_counted_exactly_within_the_bound(self):
        # 1431 is the most factors of 5 a denominator within the number
        # bound can have
        def cut(text):
            return (text if len(text) <= 40
                    else f"{text[:40]}... ({len(text)} characters)")

        for k in range(1432):
            ending, places = 5 ** k << 3, max(k, 3)
            assert _plain_number(Fraction(1, ending)) == cut(
                format_ratios((1,), ending, places)[0])
            assert _plain_number(Fraction(1, 3 * 5 ** k)) == cut(
                f"1/{3 * 5 ** k}")

    def test_long_tokens_are_quoted_briefly(self, greek):
        long = "x" * 2000
        quoted = f"'{'x' * 40}'... (2000 characters)"
        for call, message in [
            (lambda: greek.bit(long), f"unknown objective {quoted}"),
            (lambda: Individual(long[:-1] + " ", greek, {"alpha": 1}),
             f"individual id {quoted} contains whitespace"),
            (lambda: Individual("v", Universe((long,)), {long: "high"}),
             f"membership of {quoted} must be a number, got 'high'"),
        ]:
            with pytest.raises(ScenarioError) as exc:
                call()
            assert str(exc.value) == message

    def test_long_values_are_quoted_briefly(self, greek):
        # a non-string value is cut by the length of its text, as a string is
        weights = [0] * 10000
        key = ("alpha",) * 5000
        for call, value, message in [
            (lambda: Individual("v", greek, {"alpha": weights}), weights,
             "membership of 'alpha' must be a number, got {}"),
            (lambda: greek.bit(key), key, "unknown objective {}"),
        ]:
            text = repr(value)
            with pytest.raises(ScenarioError) as exc:
                call()
            assert str(exc.value) == message.format(
                f"{text[:40]}... ({len(text)} characters)")
            assert len(str(exc.value)) < 200
        # a short one is quoted whole
        with pytest.raises(ScenarioError) as exc:
            Individual("v", greek, {"alpha": [0] * 3})
        assert str(exc.value) == (
            "membership of 'alpha' must be a number, got [0, 0, 0]")

    @pytest.mark.parametrize("length", [1, 40, 41, 5000])
    def test_constructor_ids_are_quoted_briefly(self, greek, length):
        # ids up to 40 characters are quoted whole, as they always were
        name = "m" * length
        shown = (f"'{name}'" if length <= 40
                 else f"'{'m' * 40}'... ({length} characters)")
        other = Universe(("x",))
        alt = Alternative(name, greek.subset(["alpha"]))
        ind = Individual.crisp(name, greek, ["alpha"])
        for call, message in [
            (lambda: Environment((alt, alt)), f"duplicate alternative id {shown}"),
            (lambda: Society((ind, ind)), f"duplicate individual id {shown}"),
            (lambda: Environment((Alternative("a", greek.subset(["alpha"])),
                                  Alternative(name, other.subset(["x"])))),
             f"alternative {shown} uses a different universe"),
            (lambda: Society((Individual.crisp("p", greek, ["alpha"]),
                              Individual.crisp(name, other, ["x"]))),
             f"individual {shown} uses a different universe"),
            (lambda: Alternative(name, greek.empty()),
             f"alternative {shown} offers no objectives"),
            (lambda: Individual(name, greek, {}),
             f"individual {shown} requires no objectives (empty support)"),
            (lambda: cardinal_utility(Alternative(name, other.subset(["x"])), ind),
             f"alternative {shown} and individual {shown} use different universes"),
        ]:
            with pytest.raises(ScenarioError) as exc:
                call()
            assert str(exc.value) == message
            assert len(str(exc.value)) < 200

    @pytest.mark.parametrize("length", [1, 40, 41, 5000])
    def test_measure_error_ids_are_quoted_briefly(self, greek, length):
        # the context a measure error names is quoted like every other id
        name = "w" * length
        shown = (f"'{name}'" if length <= 40
                 else f"'{'w' * 40}'... ({length} characters)")
        env = Environment((Alternative(name, greek.subset(["alpha"])),))
        soc = Society((Individual(name, greek, {"alpha": "0.5"}),))
        with pytest.raises(NonCrispIndividual) as exc:
            build_process("cardinal", env, soc)
        assert exc.value.individual_id == exc.value.alternative_id == name
        assert str(exc.value) == (
            "cardinal utility is defined only for crisp individuals "
            f"(all weights 0 or 1) | individual {shown} | alternative {shown}")
        assert len(str(exc.value)) < 300

    def test_duplicate_id_names_the_first_repeat(self, greek):
        a, b = (Alternative(i, greek.subset(["alpha"])) for i in "ab")
        with pytest.raises(ScenarioError) as exc:
            Environment((a, b, b, a))
        assert str(exc.value) == "duplicate alternative id 'b'"
        p, q = (Individual.crisp(i, greek, ["alpha"]) for i in "pq")
        with pytest.raises(ScenarioError) as exc:
            Society((p, q, q, p))
        assert str(exc.value) == "duplicate individual id 'q'"

    def test_equal_distinct_universes_are_accepted(self, greek):
        twin = Universe(greek.objectives)
        assert twin == greek and twin is not greek
        env = Environment((Alternative("a", greek.subset(["alpha"])),
                           Alternative("b", twin.subset(["beta"]))))
        soc = Society((Individual.crisp("p", greek, ["alpha"]),
                       Individual.crisp("q", twin, ["beta"])))
        assert env.universe is greek and soc.universe is greek

    def test_unknown_objective(self, greek):
        with pytest.raises(ScenarioError, match="unknown objective"):
            Individual("v", greek, {"delta": 1})

    def test_empty_support_rejected(self, greek):
        with pytest.raises(ScenarioError, match="empty support"):
            Individual("v", greek, {"alpha": 0})
        with pytest.raises(ScenarioError, match="empty support"):
            Individual("v", greek, {})

    def test_explicit_zeros_are_dropped(self, greek):
        ind = Individual("v", greek, {"alpha": 1, "beta": 0})
        assert ind.is_crisp
        assert ind.support == frozenset({"alpha"})
        assert ind == Individual.crisp("v", greek, ["alpha"])

    def test_compares_and_hashes_by_id_universe_and_stored_weights(self, greek):
        made = Individual("v", greek, {"alpha": "1/2", "beta": "1/4"})
        assert (made._mask, made._weights, made._scale) == (3, (2, 1), 4)
        twin = Individual("v", Universe(greek.objectives),
                          {"beta": Fraction(1, 4), "alpha": 0.5, "gamma": 0})
        assert made == twin and hash(made) == hash(twin)
        # each differs from ``made`` in one of id, universe, mask, weights
        # and scale, in that order
        others = [
            Individual("w", greek, {"alpha": "1/2", "beta": "1/4"}),
            Individual("v", Universe(("alpha", "beta")),
                       {"alpha": "1/2", "beta": "1/4"}),
            Individual("v", greek, {"alpha": "1/2", "gamma": "1/4"}),
            Individual("v", greek, {"alpha": "1/4", "beta": "1/2"}),
            Individual("v", greek, {"alpha": "1/4", "beta": "1/8"}),
        ]
        for other in others:
            assert other != made and hash(other) != hash(made)

    def test_refuses_assignment_and_deletion(self, greek):
        made = Individual("v", greek, {"alpha": "1/2"})
        for name in ("id", "universe", "_mask", "_weights", "_scale", "new"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(made, name, None)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(made, name)
        assert made == Individual("v", greek, {"alpha": "1/2"})

    def test_exact_decimal_weights(self, greek):
        ind = Individual("v", greek, {"alpha": "0.1"})
        assert ind.mu("alpha") == Fraction(1, 10)

    def test_empty_collections_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            Environment(())
        assert str(exc.value) == "environment must contain at least one alternative"
        with pytest.raises(ScenarioError) as exc:
            Society(())
        assert str(exc.value) == "society must contain at least one individual"

    def test_list_inputs_are_stored_as_tuples(self, offer_all, modest):
        env, soc = Environment([offer_all]), Society([modest])
        assert type(env.alternatives) is tuple and type(soc.individuals) is tuple
        # stored as tuples, they compare and hash like tuple-built ones
        assert env == Environment((offer_all,))
        assert hash(env) == hash(Environment((offer_all,)))
        assert soc == Society((modest,))
        assert hash(soc) == hash(Society((modest,)))

    def test_alternative_requires_offers(self, greek):
        with pytest.raises(ScenarioError, match="offers no objectives"):
            Alternative("m", greek.empty())

    def test_mixed_universes_rejected(self, greek):
        other = Universe(("x",))
        alt = Alternative("m", greek.subset(["alpha"]))
        ind = Individual.crisp("v", other, ["x"])
        with pytest.raises(ScenarioError, match="different universes"):
            cardinal_utility(alt, ind)


TOKENS = tuple(f"o{i}" for i in range(6))
# weights over 2**a * 5**b, so each one has an exact decimal literal
decimal_weights = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda ab: st.integers(0, 2 ** ab[0] * 5 ** ab[1]).map(
        lambda n: Fraction(n, 2 ** ab[0] * 5 ** ab[1])))


class TestStoredWeights:
    """``Individual`` keeps its weights as integers over one scale; every
    view of them is the exact weight map it was given."""

    @settings(max_examples=100, deadline=None)
    @given(weights=st.dictionaries(st.sampled_from(TOKENS), decimal_weights,
                                   min_size=1).filter(lambda m: any(m.values())))
    def test_views_match_the_given_weights(self, weights):
        universe = Universe(TOKENS)
        ind = Individual("v", universe, weights)
        positive = {t: v for t, v in weights.items() if v}
        assert ind.membership == positive
        assert ind.mass == sum(positive.values())
        assert ind.is_crisp == all(v == 1 for v in positive.values())
        assert all(ind.mu(t) == weights.get(t, 0) for t in TOKENS)
        assert all(ind.mu(t) == ind.membership.get(t, 0) for t in TOKENS)
        assert list(ind.membership) == [t for t in TOKENS if t in positive]
        again = Individual("v", universe, ind.membership)
        assert again == ind
        assert hash(again) == hash(ind)

        body = ", ".join(
            f"{json.dumps(t)}: {format_ratios((v.numerator,), v.denominator, 12)[0]}"
            for t, v in weights.items())
        text = (f'{{"universe": {json.dumps(list(TOKENS))}, '
                '"alternatives": [{"id": "x", "offers": ["o0"]}], '
                f'"individuals": [{{"id": "v", "membership": {{{body}}}}}]}}')
        parsed = parse_scenario(text).society.individuals[0]
        assert parsed == ind
        assert hash(parsed) == hash(ind)


class TestMeasureProperties:
    def test_ranges(self):
        rng = random.Random(201)
        for _ in range(150):
            env, soc = random_scenario_parts(rng)
            for alt in env.alternatives:
                for ind in soc.individuals:
                    fu = fuzzy_utility(alt, ind)
                    assert 0 <= fu <= 1
                    if ind.is_crisp:
                        ncu = normalized_cardinal_utility(alt, ind)
                        assert 0 <= ncu <= 1

    def test_normalized_extremes(self):
        rng = random.Random(202)
        for _ in range(150):
            u = random_universe(rng)
            alt = random_environment(rng, u, 1).alternatives[0]
            ind = random_crisp_individual(rng, u, "v")
            ncu = normalized_cardinal_utility(alt, ind)
            assert (ncu == 1) == (ind.support <= alt.offers.members)
            assert (ncu == 0) == (not (ind.support & alt.offers.members))

    def test_crisp_reduction_is_exact(self):
        rng = random.Random(203)
        for _ in range(300):
            u = random_universe(rng)
            alt = random_environment(rng, u, 1).alternatives[0]
            ind = random_crisp_individual(rng, u, "v")
            assert (fuzzy_utility(alt, ind)
                    == normalized_cardinal_utility(alt, ind))

    def test_monotone_in_offers(self):
        rng = random.Random(204)
        for _ in range(150):
            u = random_universe(rng, min_size=2)
            small = random_environment(rng, u, 1).alternatives[0]
            extra = set(small.offers.members)
            extra.update(rng.sample(u.objectives, rng.randint(1, len(u))))
            big = Alternative("big", u.subset(extra))
            fuzzy_ind = random_fuzzy_individual(rng, u, "w")
            crisp_ind = random_crisp_individual(rng, u, "c")
            assert fuzzy_utility(small, fuzzy_ind) <= fuzzy_utility(big, fuzzy_ind)
            assert cardinal_utility(small, crisp_ind) <= cardinal_utility(big, crisp_ind)

    def test_padding_invariance(self):
        rng = random.Random(205)
        for _ in range(150):
            u = random_universe(rng)
            alt = random_environment(rng, u, 1).alternatives[0]
            crisp_ind = random_crisp_individual(rng, u, "c")
            fuzzy_ind = random_fuzzy_individual(rng, u, "w")
            padded = Universe(u.objectives + ("pad0", "pad1"))
            alt_p = Alternative(alt.id, padded.subset(alt.offers.members))
            crisp_p = Individual(crisp_ind.id, padded, crisp_ind.membership)
            fuzzy_p = Individual(fuzzy_ind.id, padded, fuzzy_ind.membership)
            assert cardinal_utility(alt_p, crisp_p) == cardinal_utility(alt, crisp_ind)
            assert (normalized_cardinal_utility(alt_p, crisp_p)
                    == normalized_cardinal_utility(alt, crisp_ind))
            assert fuzzy_utility(alt_p, fuzzy_p) == fuzzy_utility(alt, fuzzy_ind)

    def test_cardinal_bounded_by_smaller_set(self):
        rng = random.Random(206)
        for _ in range(150):
            u = random_universe(rng)
            alt = random_environment(rng, u, 1).alternatives[0]
            ind = random_crisp_individual(rng, u, "v")
            cu = cardinal_utility(alt, ind)
            assert cu <= min(len(alt.offers), len(ind.support))

    def test_against_elementwise_oracle(self):
        rng = random.Random(207)
        for _ in range(200):
            env, soc = random_scenario_parts(rng)
            for alt in env.alternatives:
                offers = list(alt.offers.members)
                for ind in soc.individuals:
                    weights = ind.membership
                    assert fuzzy_utility(alt, ind) == oracle_fuzzy(
                        offers, weights, env.universe.objectives)
                    if ind.is_crisp:
                        required = list(ind.support)
                        assert cardinal_utility(alt, ind) == oracle_cardinal(
                            offers, required)
                        assert normalized_cardinal_utility(alt, ind) == oracle_normalized(
                            offers, required)


def test_every_public_name_resolves():
    assert [name for name in setchoice.__all__
            if not hasattr(setchoice, name)] == []
