"""Backend equivalence: the compiled kernel, the pure kernel, and the
per-pair reference functions must agree exactly."""

import random
from fractions import Fraction

import pytest

from setchoice import (
    Alternative,
    Environment,
    Individual,
    Society,
    Universe,
    individual_profile,
)
from setchoice._core import (
    HAVE_FAST,
    encode,
    kernel_py,
    utility_matrix,
)

from _gen import random_scenario_parts

MEASURES = ("cardinal", "normalized", "fuzzy")


def encoded(parts):
    universe, environment, society = parts
    return encode(universe, environment, society)


class TestEncoding:
    def test_hand_case(self):
        u = Universe(("a", "b", "c"))
        env = Environment((Alternative("x", u.subset(["a", "c"])),))
        soc = Society((Individual("v", u, {"a": Fraction(1, 2),
                                           "c": Fraction(1, 3)}),))
        enc = encode(u, env, soc)
        assert enc.offer_masks == (0b101,)
        assert enc.offer_positions == ((0, 2),)
        assert enc.support_masks == (0b101,)
        assert (soc.individuals[0]._weights, soc.individuals[0]._scale) == (
            (3, 2), 6)
        assert enc.weights == ((3, 0, 2),)
        assert enc.totals == (5,)
        assert enc.int64_safe

    def test_large_scale_marks_unsafe(self):
        u = Universe(("a", "b"))
        env = Environment((Alternative("x", u.subset(["a"])),))
        soc = Society((Individual("v", u, {"a": Fraction(1, 10 ** 20),
                                           "b": Fraction(1, 3)}),))
        enc = encode(u, env, soc)
        assert not enc.int64_safe


class TestKernelAgreement:
    def test_pure_kernel_matches_reference(self):
        rng = random.Random(401)
        for _ in range(100):
            parts = random_scenario_parts(rng, crisp=True)
            enc = encoded(parts)
            for measure in MEASURES:
                nums, dens = kernel_py.utility_matrix(enc, measure)
                for n, ind in enumerate(parts[2].individuals):
                    ref = individual_profile(measure, parts[1], ind, parts[0])
                    got = [Fraction(num, dens[n]) for num in nums[n]]
                    assert got == [Fraction(v) for v in ref.values]

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
            enc = encode(universe, environment, society)
            for measure in MEASURES:
                assert _fast_matrix(enc, measure) == kernel_py.utility_matrix(
                    enc, measure)

    def test_unsafe_encoding_falls_back_to_pure(self):
        u = Universe(("a", "b"))
        env = Environment((Alternative("x", u.subset(["a"])),))
        ind = Individual("v", u, {"a": Fraction(1, 10 ** 20), "b": Fraction(1, 3)})
        soc = Society((ind,))
        enc = encode(u, env, soc)
        assert not enc.int64_safe
        nums, dens = utility_matrix(enc, "fuzzy")
        got = Fraction(nums[0][0], dens[0])
        assert got == individual_profile("fuzzy", env, ind, u).values[0]
