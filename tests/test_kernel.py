"""Backend equivalence: the compiled kernel, the pure kernel, and the
per-pair reference functions must agree exactly, on every path the plan
allows."""

import json
import random
from collections import Counter
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
from setchoice import _core
from setchoice._core import (
    HAVE_FAST,
    encode,
    kernel_py,
    plan,
    utility_matrix,
)
from setchoice._core.encode import INT64_LIMIT, EncodedScenario
from setchoice._core.kernel_py import Plan
from setchoice.evaluation import exact_mean

from _gen import (
    DENOMS,
    distinct_weights_document,
    planned,
    random_environment,
    random_scenario_parts,
    random_society,
    random_universe,
    token_pool,
    workload_documents,
)
from _golden import ROOT

MEASURES = ("cardinal", "normalized", "fuzzy")

# row totals at the edge of each packed field width (16, 32, 64 bits, then
# 64-bit fields summed in limbs): the largest total that fits one width and
# the first that needs the next
WIDTH_EDGES = (2 ** 16 - 1, 2 ** 16, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64)
SMALL_WEIGHT = Fraction(1, 10 ** 20)  # a scale beyond int64 on its own
small_weights = st.builds(lambda den, num: Fraction(num % den + 1, den),
                          st.sampled_from(DENOMS), st.integers(0, 99))
#: weights from the files' two decimals to denominators far beyond int64,
#: so that row totals range from a few bits to a few hundred
mixed_weights = st.one_of(
    small_weights, st.just(SMALL_WEIGHT),
    st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(10 ** 6, 10 ** 60)))


@st.composite
def weighted_parts(draw, alternatives, largest=None, weights=small_weights):
    """An environment of ``alternatives`` random alternatives, and a society
    weighted by ``weights``, over one universe; with ``largest``, one more
    individual whose integer weights sum to exactly ``largest`` (all others
    sum to less)."""
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
    return environment, society


ABC = Universe(("a", "b", "c"))
#: A crisp individual and a weighted one whose every weight is exactly 1,
#: so its scale is 1.
UNIT_WEIGHTED = (
    Environment((Alternative("x", ABC.subset(["a"])),)),
    Society((Individual.crisp("crisp", ABC, ["a", "c"]),
             Individual("ones", ABC, {"a": Fraction(1), "b": Fraction(1)}))))
#: Rows of totals of 4, 22, 42, 101 and 201 bits: one for each packed
#: width, one summed in limbs and one summed per offer.
MIXED_WIDTHS = (
    Environment((Alternative("x", ABC.subset(["a", "c"])),
                 Alternative("y", ABC.subset(["b"])))),
    Society(tuple(Individual(f"w{k}", ABC, {"a": Fraction(1, den),
                                             "b": Fraction(1, 3),
                                             "c": Fraction(1, 2)})
                  for k, den in enumerate((2, 2 ** 20, 2 ** 40, 10 ** 30,
                                           10 ** 60)))))


def membership_entry(weights: dict[str, str]) -> str:
    """A ``membership`` key and its object, each weight as spelled."""
    return '"membership": {%s}' % ", ".join(
        f'"{token}": {weight}' for token, weight in weights.items())


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
    @example(parts=(UNIT_WEIGHTED[0], Society((
        *UNIT_WEIGHTED[1], Individual("half", ABC, {"b": Fraction(1, 2)})))))
    @settings(max_examples=60, deadline=None)
    def test_totals_are_the_row_sums(self, parts):
        """A total is its row's length when every scale is 1, since a
        scale of 1 holds only weights of 1, and its sum otherwise."""
        assert encode(*parts).totals == tuple(map(sum, parts[1].weights))

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


def assert_fuzzy_matches_reference(parts, nums, dens):
    """``nums[n][m] / dens[n]`` is the per-pair fuzzy utility of individual
    n on alternative m."""
    environment, society = parts
    assert len(nums) == len(dens) == len(society)
    for row, den, ind in zip(nums, dens, society.individuals):
        ref = individual_profile("fuzzy", environment, ind)
        assert [Fraction(num, den) for num in row] == list(ref.values)


def row_path(chosen, bits):
    """The path ``chosen`` takes for a fuzzy row whose total has ``bits``
    bits."""
    if bits <= chosen.packed_bits:
        return f"packed at {chosen.width} bits"
    return "limbs" if bits <= chosen.limbed_bits else "per offer"


def row_plans(natural, limb):
    """Plans that force each fuzzy row path on every row that can take it,
    ``{name: plan}``: a row that a packed width cannot hold goes per offer,
    and limbs are ``limb`` bits wide."""
    packed = {f"packed at {width} bits": planned(
        natural, width=width, packed_bits=width, limbed_bits=width)
        for width in (16, 32, 64)}
    return {**packed,
            "limbs": planned(natural, width=64, packed_bits=0, limb_bits=limb,
                             limbed_bits=1 << 16),
            "per offer": planned(natural, width=64, packed_bits=0,
                                 limbed_bits=0)}


class TestKernelAgreement:
    def test_pure_kernel_matches_reference(self):
        rng = random.Random(401)
        for _ in range(100):
            env, soc = random_scenario_parts(rng, crisp=True)
            enc = encode(env, soc)
            for measure in MEASURES:
                nums, dens = kernel_py.utility_matrix(enc, measure)
                for n, ind in enumerate(soc.individuals):
                    ref = individual_profile(measure, env, ind)
                    got = [Fraction(num, dens[n]) for num in nums[n]]
                    assert got == [Fraction(v) for v in ref.values]

    @pytest.mark.parametrize("alternatives", [1, 4])
    @pytest.mark.parametrize("largest", WIDTH_EDGES)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_packed_fuzzy_matches_reference(self, largest, alternatives, data):
        parts = data.draw(weighted_parts(alternatives, largest))
        enc = encode(*parts)
        assert max(enc.totals) == largest
        assert enc.int64_safe == (largest < INT64_LIMIT)
        assert_fuzzy_matches_reference(
            parts, *kernel_py.utility_matrix(enc, "fuzzy"))

    @settings(max_examples=60, deadline=None)
    @given(alternatives=st.integers(1, 5), data=st.data())
    def test_packed_fuzzy_matches_reference_beyond_int64(self, alternatives,
                                                         data):
        parts = data.draw(weighted_parts(alternatives, weights=st.one_of(
            small_weights, st.just(SMALL_WEIGHT))))
        assert_fuzzy_matches_reference(
            parts, *kernel_py.utility_matrix(encode(*parts), "fuzzy"))

    def test_packed_field_widths(self):
        def one_row(total):
            return EncodedScenario(1, (1,), (1,), ((total,),), (total,))

        assert [plan(one_row(total), "fuzzy").width
                for total in (0, *WIDTH_EDGES)] == [16, 16, 32, 32, 64, 64, 64]

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
            natural = plan(encode(environment, Society(tuple(individuals))),
                           "fuzzy")
            limb, widest = natural.limb_bits, natural.limbed_bits
            for k in range(3):
                den = rng.randrange(2 ** 70, 2 ** 90)
                individuals.append(Individual(f"wide{k}", universe, {
                    token: Fraction(rng.randrange(1, den), den)
                    for token in rng.sample(universe.objectives,
                                            rng.randint(1, len(universe)))}))
            individuals.append(Individual("full", universe, dict.fromkeys(
                universe.objectives,
                Fraction(2 ** (2 * limb) - 1, 2 ** (2 * limb)))))
            for top in (63, 64, widest - limb, widest - 1, widest):
                individuals.append(Individual(f"top{top}", universe, dict(zip(
                    universe.objectives,
                    (Fraction(1, 2), Fraction(1, 3 << top))))))
            rng.shuffle(individuals)
            parts = environment, Society(tuple(individuals))
            enc = encode(*parts)
            chosen = plan(enc, "fuzzy")
            assert (chosen.limb_bits, chosen.limbed_bits) == (limb, widest)
            bits = set(map(int.bit_length, enc.totals))
            assert {64, 65, widest, widest + 1} <= bits
            assert {row_path(chosen, b) for b in bits} == {
                "packed at 64 bits", "limbs", "per offer"}
            assert_fuzzy_matches_reference(
                parts, *kernel_py.utility_matrix(enc, "fuzzy"))

    @pytest.mark.skipif(not HAVE_FAST, reason="compiled kernel not built")
    def test_compiled_matches_pure(self):
        rng = random.Random(402)
        for _ in range(100):
            enc = encode(*random_scenario_parts(rng))
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
        env, soc = scenario.environment, scenario.society
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


#: (document, measure): the plan of its encoding, its kernel rows' paths,
#: the crisp mean's group counts and the social mean's pseudo row, as
#: ``(total bits, path)``.  The documents are each benchmark workload's
#: first at seed 3, and the bundled scenarios.
PINNED_PLANS = {
    ("fuzzy-0.json", "fuzzy"): (
        Plan(16, 64, 57, 171, (), 682), {"packed at 16 bits": 200}, "fuzzy",
        (995, "per offer")),
    ("crisp-0.json", "normalized"): (
        Plan(16, 64, 57, 171, (), 682), {"popcount": 400}, {"folds": 49},
        (111, "limbs")),
    ("intake-0.json", "cardinal"): (
        Plan(16, 64, 58, 174, (1,), 2048), {"popcount": 4000},
        {"column groups": 1}, (16, "packed at 16 bits")),
    ("crisp_pair.json", "cardinal"): (
        Plan(16, 64, 62, 186, (), 8192), {"popcount": 2}, {"folds": 1},
        (3, "packed at 16 bits")),
    ("crisp_pair.json", "normalized"): (
        Plan(16, 64, 62, 186, (), 8192), {"popcount": 2}, {"folds": 2},
        (3, "packed at 16 bits")),
    ("crisp_pair.json", "fuzzy"): (
        Plan(16, 64, 62, 186, (), 8192), {"packed at 16 bits": 2}, "fuzzy",
        (3, "packed at 16 bits")),
    ("partial_overlap.json", "cardinal"): (
        Plan(16, 64, 61, 183, (), 8192), {"popcount": 1}, {"folds": 1},
        (2, "packed at 16 bits")),
    ("partial_overlap.json", "normalized"): (
        Plan(16, 64, 61, 183, (), 8192), {"popcount": 1}, {"folds": 1},
        (2, "packed at 16 bits")),
    ("partial_overlap.json", "fuzzy"): (
        Plan(16, 64, 61, 183, (), 8192), {"packed at 16 bits": 1}, "fuzzy",
        (2, "packed at 16 bits")),
    ("weighted_split.json", "fuzzy"): (
        Plan(16, 64, 61, 183, (), 8192), {"packed at 16 bits": 1}, "fuzzy",
        (4, "packed at 16 bits")),
}


def pinned_text(name):
    """The text of a bundled scenario or of a workload's seed-3 document."""
    path = ROOT / "scenarios" / name
    if path.exists():
        return path.read_text(encoding="utf-8")
    return next(document.text for document in workload_documents(3)
                if document.name == name)


class TestPlan:
    """``plan`` makes every path choice of the kernel and the mean; each
    path it allows gives the per-pair measures and ``exact_mean``."""

    @settings(max_examples=80, deadline=None)
    @given(parts=st.integers(1, 5).flatmap(
        lambda alternatives: weighted_parts(alternatives,
                                            weights=mixed_weights)),
           limb=st.integers(1, 61))
    @example(parts=MIXED_WIDTHS, limb=61)
    @example(parts=MIXED_WIDTHS, limb=1)
    def test_every_row_path_gives_the_per_pair_measure(self, parts, limb):
        enc = encode(*parts)
        natural = plan(enc, "fuzzy")
        forced = row_plans(natural, min(limb, natural.limb_bits))
        for chosen in (natural, *forced.values()):
            nums = kernel_py._fuzzy_matrix(enc, chosen)
            assert_fuzzy_matches_reference(parts, nums, enc.totals)

    def test_the_mixed_rows_take_every_path(self):
        enc = encode(*MIXED_WIDTHS)
        natural = plan(enc, "fuzzy")
        bits = [total.bit_length() for total in enc.totals]
        assert {name: [row_path(chosen, b) for b in bits]
                for name, chosen in row_plans(natural, 1).items()} == {
            "packed at 16 bits": ["packed at 16 bits"] + ["per offer"] * 4,
            "packed at 32 bits": ["packed at 32 bits"] * 2 + ["per offer"] * 3,
            "packed at 64 bits": ["packed at 64 bits"] * 3 + ["per offer"] * 2,
            "limbs": ["limbs"] * 5, "per offer": ["per offer"] * 5}
        assert [row_path(natural, b) for b in bits] == [
            "packed at 64 bits"] * 3 + ["limbs", "per offer"]

    @pytest.mark.parametrize("name, measure", PINNED_PLANS)
    def test_pinned_plans(self, monkeypatch, name, measure):
        scenario = parse_scenario(pinned_text(name))
        enc = encode(scenario.environment, scenario.society)
        chosen = plan(enc, measure)
        if measure == "fuzzy":
            groups = "fuzzy"
            rows = Counter(row_path(chosen, total.bit_length())
                           for total in enc.totals)
        else:
            rows, groups = {"popcount": len(enc.totals)}, Counter()
            sizes = (Counter(enc.totals) if measure == "normalized"
                     else {1: len(enc.totals)})
            for total, count in sizes.items():
                if total in chosen.column_groups:
                    groups["column groups"] += 1
                else:
                    groups["folds"] += -(-count // chosen.fold_supports)
        pseudo, kernel = [], _core.utility_matrix
        monkeypatch.setattr(_core, "utility_matrix", lambda enc, measure: (
            pseudo.append(enc) or kernel(enc, measure)))
        evaluate(build_process(measure, scenario.environment, scenario.society))
        (row,) = pseudo
        bits = row.totals[0].bit_length()
        pseudo_row = bits, row_path(plan(row, "fuzzy"), bits)
        assert (chosen, rows, groups, pseudo_row) == PINNED_PLANS[name, measure]
