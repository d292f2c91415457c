"""Backend equivalence: the compiled kernel, the pure kernel, and the
per-pair reference functions must agree exactly."""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setchoice import (
    Alternative,
    Environment,
    Individual,
    Society,
    Universe,
    build_process,
    evaluate,
    individual_profile,
    parse_scenario,
)
from setchoice._core import (
    HAVE_FAST,
    encode,
    kernel_py,
    utility_matrix,
)
from setchoice._core.encode import INT64_LIMIT
from setchoice.evaluation import exact_mean

from _gen import (
    DENOMS,
    distinct_weights_document,
    random_environment,
    random_scenario_parts,
    random_society,
    random_universe,
    token_pool,
)

MEASURES = ("cardinal", "normalized", "fuzzy")

# row totals at the edge of each packed field width (16, 32, 64 bits, then
# 64-bit fields summed in limbs): the largest total that fits one width and
# the first that needs the next
WIDTH_EDGES = (2 ** 16 - 1, 2 ** 16, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64)
SMALL_WEIGHT = Fraction(1, 10 ** 20)  # a scale beyond int64 on its own
small_weights = st.builds(lambda den, num: Fraction(num % den + 1, den),
                          st.sampled_from(DENOMS), st.integers(0, 99))


@st.composite
def weighted_parts(draw, alternatives, largest=None, weights=small_weights):
    """A universe, ``alternatives`` random alternatives, and individuals
    weighted by ``weights``; with ``largest``, one more whose integer
    weights sum to exactly ``largest`` (all others sum to less)."""
    universe = Universe(token_pool(draw(st.integers(2, 6))))
    subsets = st.lists(st.sampled_from(universe.objectives), min_size=1,
                       unique=True)
    environment = Environment(tuple(
        Alternative(f"alt{m}", universe.subset(draw(subsets)))
        for m in range(alternatives)))
    memberships = [{token: draw(weights) for token in draw(subsets)}
                   for _ in range(draw(st.integers(largest is None, 3)))]
    if largest is not None:
        # parts 1, then the gaps between distinct cuts: the weight 1/largest
        # makes the scale largest, and the parts sum to it
        tokens = draw(st.lists(st.sampled_from(universe.objectives),
                               min_size=2, unique=True))
        cuts = sorted(draw(st.lists(st.integers(2, largest - 1), unique=True,
                                    min_size=len(tokens) - 2,
                                    max_size=len(tokens) - 2)))
        bounds = [1, *cuts, largest]
        parts = [1] + [b - a for a, b in zip(bounds, bounds[1:])]
        memberships.insert(draw(st.integers(0, len(memberships))), {
            token: Fraction(part, largest) for token, part in zip(tokens, parts)})
    society = Society(tuple(Individual(f"ind{n}", universe, membership)
                            for n, membership in enumerate(memberships)))
    return universe, environment, society


ABC = Universe(("a", "b", "c"))
#: A crisp individual and a weighted one whose every weight is exactly 1,
#: so its scale is 1.
UNIT_WEIGHTED = (
    ABC, Environment((Alternative("x", ABC.subset(["a"])),)),
    Society((Individual.crisp("crisp", ABC, ["a", "c"]),
             Individual("ones", ABC, {"a": Fraction(1), "b": Fraction(1)}))))


def membership_entry(weights: dict[str, str]) -> str:
    """A ``membership`` key and its object, each weight as spelled."""
    return '"membership": {%s}' % ", ".join(
        f'"{token}": {weight}' for token, weight in weights.items())


def encoded(parts):
    return encode(*parts[1:])


class TestEncoding:
    def test_hand_case(self):
        u = Universe(("a", "b", "c"))
        env = Environment((Alternative("x", u.subset(["a", "c"])),))
        soc = Society((Individual("v", u, {"a": Fraction(1, 2),
                                           "c": Fraction(1, 3)}),))
        enc = encode(env, soc)
        assert enc.offer_masks == (0b101,)
        assert enc.support_masks == (0b101,)
        assert enc.support_weights == ((3, 2),)
        assert (soc.individuals[0]._weights, soc.individuals[0]._scale) == (
            (3, 2), 6)
        assert enc.weights == ((3, 0, 2),)
        assert enc.totals == (5,)
        assert enc.int64_safe

    @given(parts=weighted_parts(
        2, weights=st.one_of(st.just(Fraction(1)), small_weights)))
    @example(parts=UNIT_WEIGHTED)
    @example(parts=(*UNIT_WEIGHTED[:2], Society((
        *UNIT_WEIGHTED[2], Individual("half", ABC, {"b": Fraction(1, 2)})))))
    @settings(max_examples=60, deadline=None)
    def test_totals_are_the_row_sums(self, parts):
        """A total is its row's length when every scale is 1, since a
        scale of 1 holds only weights of 1, and its sum otherwise."""
        assert encoded(parts).totals == tuple(map(sum, parts[2].weights))

    @given(entries=st.lists(st.one_of(
        st.lists(st.sampled_from("abc"), min_size=1, unique=True).map(
            lambda tokens: f'"requires": {json.dumps(tokens)}'),
        st.dictionaries(st.sampled_from("abc"),
                        st.sampled_from(["1", "1.0", "1e0", "0.5", "0.25"]),
                        min_size=1).map(membership_entry)),
        min_size=1, max_size=5))
    @example(entries=['"requires": ["a"]', '"membership": {"b": 1, "c": 1.0}'])
    @settings(max_examples=60, deadline=None)
    def test_totals_of_a_parsed_scenario_are_the_row_sums(self, entries):
        individuals = ", ".join(f'{{"id": "p{n}", {entry}}}'
                                for n, entry in enumerate(entries))
        scenario = parse_scenario(
            '{"universe": ["a", "b", "c"], "alternatives": [{"id": "x", '
            f'"offers": ["a"]}}], "individuals": [{individuals}]}}')
        society = scenario.society
        assert encode(scenario.environment, society).totals == tuple(
            map(sum, society.weights))

    def test_large_scale_marks_unsafe(self):
        u = Universe(("a", "b"))
        env = Environment((Alternative("x", u.subset(["a"])),))
        soc = Society((Individual("v", u, {"a": Fraction(1, 10 ** 20),
                                           "b": Fraction(1, 3)}),))
        enc = encode(env, soc)
        assert not enc.int64_safe


def assert_fuzzy_matches_reference(parts, enc):
    _, environment, society = parts
    nums, dens = kernel_py.utility_matrix(enc, "fuzzy")
    assert len(nums) == len(dens) == len(society)
    for n, ind in enumerate(society.individuals):
        ref = individual_profile("fuzzy", environment, ind)
        assert [Fraction(num, dens[n]) for num in nums[n]] == list(ref.values)


class TestKernelAgreement:
    def test_pure_kernel_matches_reference(self):
        rng = random.Random(401)
        for _ in range(100):
            parts = random_scenario_parts(rng, crisp=True)
            enc = encoded(parts)
            for measure in MEASURES:
                nums, dens = kernel_py.utility_matrix(enc, measure)
                for n, ind in enumerate(parts[2].individuals):
                    ref = individual_profile(measure, parts[1], ind)
                    got = [Fraction(num, dens[n]) for num in nums[n]]
                    assert got == [Fraction(v) for v in ref.values]

    @pytest.mark.parametrize("alternatives", [1, 4])
    @pytest.mark.parametrize("largest", WIDTH_EDGES)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_packed_fuzzy_matches_reference(self, largest, alternatives, data):
        parts = data.draw(weighted_parts(alternatives, largest))
        enc = encoded(parts)
        assert max(enc.totals) == largest
        assert enc.int64_safe == (largest < INT64_LIMIT)
        assert_fuzzy_matches_reference(parts, enc)

    @settings(max_examples=60, deadline=None)
    @given(alternatives=st.integers(1, 5), data=st.data())
    def test_packed_fuzzy_matches_reference_beyond_int64(self, alternatives,
                                                         data):
        parts = data.draw(weighted_parts(alternatives, weights=st.one_of(
            small_weights, st.just(SMALL_WEIGHT))))
        assert_fuzzy_matches_reference(parts, encoded(parts))

    def test_packed_field_widths(self):
        assert [kernel_py._field_width(total) for total in (0, *WIDTH_EDGES)] == [
            16, 16, 32, 32, 64, 64, 64]

    def test_one_call_mixes_narrow_and_wide_rows(self):
        # universes of 65-130 objectives, rows of totals up to 2**64 beside
        # rows summed in two or three limbs and rows wider than that, which
        # are summed per offer; "full" holds every objective with all-ones
        # limbs, the largest fields a limb row makes, and each "top" row,
        # of total (3 << top - 1) + 1, is the widest row packed in 64-bit
        # fields, the narrowest row summed in limbs, a row whose top limb
        # is its one top bit, the widest row the limbs sum, or the
        # narrowest row summed per offer
        rng = random.Random(404)
        for _ in range(10):
            universe = random_universe(rng, max_size=130, min_size=65)
            environment = random_environment(rng, universe, 6)
            individuals = list(random_society(rng, universe, 4).individuals)
            for k in range(3):
                den = rng.randrange(2 ** 70, 2 ** 90)
                individuals.append(Individual(f"wide{k}", universe, {
                    token: Fraction(rng.randrange(1, den), den)
                    for token in rng.sample(universe.objectives,
                                            rng.randint(1, len(universe)))}))
            limb = 64 - len(universe).bit_length()
            individuals.append(Individual("full", universe, dict.fromkeys(
                universe.objectives,
                Fraction(2 ** (2 * limb) - 1, 2 ** (2 * limb)))))
            passes = kernel_py._LIMB_PASSES
            for top in (63, 64, (passes - 1) * limb, passes * limb - 1,
                        passes * limb):
                individuals.append(Individual(f"top{top}", universe, dict(zip(
                    universe.objectives,
                    (Fraction(1, 2), Fraction(1, 3 << top))))))
            rng.shuffle(individuals)
            parts = universe, environment, Society(tuple(individuals))
            enc = encoded(parts)
            bits = set(map(int.bit_length, enc.totals))
            assert {64, 65, passes * limb, passes * limb + 1} <= bits
            assert {0 if b <= 64 else 1 if b <= passes * limb else 2
                    for b in bits} == {0, 1, 2}
            assert_fuzzy_matches_reference(parts, enc)

    @pytest.mark.skipif(not HAVE_FAST, reason="compiled kernel not built")
    def test_compiled_matches_pure(self):
        rng = random.Random(402)
        for _ in range(100):
            parts = random_scenario_parts(rng)
            enc = encoded(parts)
            assert enc.int64_safe
            for measure in MEASURES:
                # masks make cardinal/normalized well-defined on any
                # encoding, crisp or not, so kernels must agree everywhere
                pure = kernel_py.utility_matrix(enc, measure)
                from setchoice._core import _fast_matrix
                fast = _fast_matrix(enc, measure)
                assert fast == pure

    @pytest.mark.skipif(not HAVE_FAST, reason="compiled kernel not built")
    def test_compiled_matches_pure_beyond_one_word(self):
        # universes wider than 64 objectives exercise the multi-word masks
        from setchoice._core import _fast_matrix
        from _gen import random_environment, random_society, random_universe

        rng = random.Random(403)
        for _ in range(10):
            universe = random_universe(rng, max_size=130, min_size=65)
            environment = random_environment(rng, universe, 4)
            society = random_society(rng, universe, 4)
            enc = encode(environment, society)
            for measure in MEASURES:
                assert _fast_matrix(enc, measure) == kernel_py.utility_matrix(
                    enc, measure)

    def test_unsafe_encoding_falls_back_to_pure(self):
        u = Universe(("a", "b"))
        env = Environment((Alternative("x", u.subset(["a"])),))
        ind = Individual("v", u, {"a": Fraction(1, 10 ** 20), "b": Fraction(1, 3)})
        soc = Society((ind,))
        enc = encode(env, soc)
        assert not enc.int64_safe
        nums, dens = utility_matrix(enc, "fuzzy")
        got = Fraction(nums[0][0], dens[0])
        assert got == individual_profile("fuzzy", env, ind).values[0]


class TestCountedBounds:
    def test_wide_pseudo_row_takes_no_limb_pass(self, monkeypatch):
        # 200 individuals with distinct 300-digit weight totals make the
        # social mean's pseudo row about 198,000 bits wide: summed in limbs,
        # it would take one unpack per limb, over 3,000 of them; summed per
        # offer, it takes none
        scenario = parse_scenario(distinct_weights_document(200, 8, 300))
        _, env, soc = scenario.universe, scenario.environment, scenario.society
        unpacks, real = [], kernel_py.struct.Struct

        def counting_struct(fmt):
            unpack = real(fmt).unpack
            return SimpleNamespace(unpack=lambda data: unpacks.append(fmt)
                                   or unpack(data))

        monkeypatch.setattr(kernel_py, "struct",
                            SimpleNamespace(Struct=counting_struct))
        social = evaluate(build_process("fuzzy", env, soc))
        assert unpacks == []
        profiles = [individual_profile("fuzzy", env, ind)
                    for ind in soc.individuals]
        assert (social.nums, social.den) == exact_mean(
            [p.nums for p in profiles], [p.den for p in profiles])
