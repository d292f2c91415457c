import random
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setchoice import (
    Alternative,
    Environment,
    Individual,
    ObjectiveSet,
    ScenarioError,
    Society,
    Universe,
    exigence_universe,
    opportunity_universe,
    partition_universe,
)
from setchoice import universe
from setchoice.universe import (bit_columns, check_token, packed_counts,
                                position_bytes, positions)

from _gen import (
    oracle_difference,
    oracle_intersection,
    oracle_union,
    random_environment,
    random_scenario_parts,
    random_society,
    random_universe,
    token_pool,
)


def crisp_society(universe, *requirement_sets):
    return Society(tuple(
        Individual.crisp(f"v{i}", universe, tokens)
        for i, tokens in enumerate(requirement_sets)))


def environment_of(universe, *offer_sets):
    return Environment(tuple(
        Alternative(f"a{i}", universe.subset(tokens))
        for i, tokens in enumerate(offer_sets)))


class TestUniverse:
    def test_declaration_order_is_canonical(self):
        u = Universe(("gamma", "alpha", "beta"))
        assert u.objectives == ("gamma", "alpha", "beta")
        assert u.subset(["beta", "gamma"]).ordered() == ("gamma", "beta")

    def test_rejects_empty(self):
        with pytest.raises(ScenarioError, match="at least one objective"):
            Universe(())

    def test_list_input_is_stored_as_tuple(self):
        u = Universe(["gamma", "alpha"])
        assert u.objectives == ("gamma", "alpha")
        assert isinstance(u.objectives, tuple)
        assert u == Universe(("gamma", "alpha"))

    def test_rejects_a_bare_string(self):
        # a string is iterable, but its characters are not its objectives
        with pytest.raises(ScenarioError) as raised:
            Universe("abc")
        assert str(raised.value) == ("universe objectives must be a list of "
                                     "names, not one string")
        assert Universe(["a", "b"]).objectives == ("a", "b")

    def test_rejects_duplicates(self):
        with pytest.raises(ScenarioError, match="duplicate objective"):
            Universe(("a", "b", "a"))

    @pytest.mark.parametrize("token", ["", "a b", "a\tb", "x\n", 7,
                                       "a\x00b", "\x1b[31m", "a\u200bb"])
    def test_rejects_bad_tokens(self, token):
        with pytest.raises(ScenarioError):
            Universe(("ok", token))

    def test_one_character_tokens_follow_both_character_rules(self):
        """Over every code point, a one-character token is accepted exactly
        when it is neither whitespace nor non-printable, and a refusal names
        the first of those rules it breaks."""
        wrong = []
        for point in range(0x110000):
            char = chr(point)
            expected = ("contains whitespace" if char.isspace()
                        else None if char.isprintable()
                        else "contains a non-printable character")
            try:
                check_token(char)
                got = None
            except ScenarioError as exc:
                got = str(exc).rpartition("' ")[2]
            if got != expected:
                wrong.append((hex(point), got, expected))
        assert wrong == []

    def test_id_messages_name_the_full_noun(self):
        u = Universe(("a",))
        with pytest.raises(ScenarioError) as exc:
            Individual(["p"], u, {"a": 1})
        assert str(exc.value) == "individual id must be a string, got list"
        with pytest.raises(ScenarioError) as exc:
            Alternative(["x"], u.full())
        assert str(exc.value) == "alternative id must be a string, got list"
        with pytest.raises(ScenarioError) as exc:
            Universe(("a", 7))
        assert str(exc.value) == "objective name must be a string, got int"

    def test_membership_and_position(self):
        u = Universe(("a", "b"))
        assert "a" in u and "zz" not in u
        assert u.position("b") == 1
        with pytest.raises(ScenarioError, match="unknown objective"):
            u.position("zz")


class TestObjectiveSet:
    def test_members_must_be_declared(self):
        u = Universe(("a", "b"))
        with pytest.raises(ScenarioError, match="unknown objective"):
            u.subset(["a", "zz"])

    def test_algebra_requires_one_universe(self):
        u1, u2 = Universe(("a",)), Universe(("a", "b"))
        with pytest.raises(ScenarioError, match="different universes"):
            u1.subset(["a"]) & u2.subset(["a"])

    def test_set_operators(self):
        u = Universe(("a", "b", "c"))
        x, y = u.subset(["a", "b"]), u.subset(["b", "c"])
        assert (x & y).ordered() == ("b",)
        assert (x | y).ordered() == ("a", "b", "c")
        assert (x - y).ordered() == ("a",)
        assert u.subset(["a"]) <= x

    @pytest.mark.parametrize("mask", [True, False, -1, 4, 1.0, "1", None])
    def test_mask_must_be_an_int_within_the_universe(self, mask):
        # a boolean is not a number, as in the scenario files
        with pytest.raises(ScenarioError, match="mask must be an int"):
            ObjectiveSet(Universe(("a", "b")), mask)


@st.composite
def two_subsets(draw):
    """A universe of 1 to 130 objectives, so masks cross 64 and 128 bits,
    and two token lists over it (repeats allowed, possibly empty)."""
    tokens = token_pool(draw(st.integers(1, 130)))
    lists = st.lists(st.sampled_from(tokens), max_size=2 * len(tokens))
    return tokens, draw(lists), draw(lists)


class TestMaskAlgebra:
    """The bitmask set algebra agrees with the plain token-list oracles."""

    @settings(max_examples=200, deadline=None)
    @given(two_subsets())
    def test_matches_token_oracles(self, case):
        tokens, xs, ys = case
        u = Universe(tokens)
        x, y = u.subset(xs), u.subset(ys)

        def agrees(got, expected):
            assert got.ordered() == tuple(sorted(expected, key=tokens.index))
            assert got.members == frozenset(expected)
            assert list(got) == list(got.ordered())
            assert len(got) == len(expected)

        agrees(x, oracle_union([xs]))
        agrees(x & y, oracle_intersection(oracle_union([xs]), ys))
        agrees(x | y, oracle_union([xs, ys]))
        agrees(x - y, oracle_difference(oracle_union([xs]), ys))
        assert (x <= y) == all(t in ys for t in xs)
        assert all((t in x) == (t in xs) for t in tokens)
        assert "zz" not in x

    @pytest.mark.parametrize("size", [1, 64, 130])
    def test_rejects_a_mask_outside_the_universe(self, size):
        u = Universe(token_pool(size))
        for mask in (-1, 1 << size, frozenset()):
            with pytest.raises(ScenarioError):
                ObjectiveSet(u, mask)
        assert ObjectiveSet(u, (1 << size) - 1) == u.full()


ALL_200 = (1 << 200) - 1


class TestBitColumns:
    """``bit_columns`` agrees with a per-bit oracle, for universes that fit
    one chunk of ``width`` positions and for those that need several."""

    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(1, 200), width=st.sampled_from((8, 16, 32, 64)),
           masks=st.lists(st.one_of(st.just(0), st.just(ALL_200),
                                    st.integers(0, ALL_200)), max_size=12))
    @example(size=8, width=8, masks=[0, ALL_200, 0])
    @example(size=9, width=8, masks=[ALL_200, 0b100000000])
    @example(size=64, width=64, masks=[ALL_200, 1 << 63])
    @example(size=65, width=64, masks=[1 << 64, 0, ALL_200])
    @example(size=200, width=8, masks=[0, 0])
    @example(size=5, width=16, masks=[])
    def test_matches_a_per_bit_oracle(self, size, width, masks):
        masks = [mask & ((1 << size) - 1) for mask in masks]
        columns = bit_columns(masks, size, width)
        assert len(columns) == size
        for p, column in enumerate(columns):
            assert column == sum(((mask >> p) & 1) << (i * width)
                                 for i, mask in enumerate(masks))


class TestPositions:
    """``position_bytes`` and ``positions`` agree with a per-bit oracle."""

    @settings(max_examples=300, deadline=None)
    @given(mask=st.one_of(st.just(0), st.just(ALL_200),
                          st.integers(0, ALL_200),
                          st.integers(0, 199).map(lambda p: 1 << p)))
    def test_match_a_per_bit_oracle(self, mask):
        selector = position_bytes(mask)
        assert len(selector) == max(mask.bit_length(), 1)
        assert list(selector) == [(mask >> p) & 1 for p in range(len(selector))]
        assert positions(mask) == [p for p in range(200) if mask >> p & 1]

    @settings(max_examples=200, deadline=None)
    @given(mask=st.one_of(
        st.integers(0, (1 << 3000) - 1),
        st.sets(st.integers(0, 2999), max_size=40).map(
            lambda bits: sum(1 << p for p in bits))),
        sparse=st.sampled_from((None, 0, 1 << 20)))
    @example(mask=1 | 1 << 2999, sparse=None)
    @example(mask=(1 << 3000) - 1, sparse=None)
    @example(mask=0, sparse=0)
    def test_sparse_and_dense_masks_match_a_per_bit_oracle(self, mask, sparse):
        """Up to 3,000 bits, by the set-bit walk (``_SPARSE`` 0), the
        ``bin`` walk (``_SPARSE`` huge) or the one the density picks."""
        expected = [p for p in range(mask.bit_length()) if mask >> p & 1]
        with mock.patch.object(universe, "_SPARSE",
                               universe._SPARSE if sparse is None else sparse):
            assert positions(mask) == expected


class TestPackedCounts:
    """``packed_counts`` gives, per position, the number of masks that hold
    it, as the popcount of the position's ``bit_columns`` column."""

    @settings(max_examples=300, deadline=None)
    @given(step=st.integers(1, 20), data=st.data())
    def test_matches_the_column_popcounts(self, step, data):
        size = 8 * step
        masks = data.draw(st.lists(st.integers(0, (1 << size) - 1),
                                   min_size=1, max_size=70))
        counts = struct.unpack(f"<{size}H", packed_counts(masks, step))
        assert list(counts) == list(map(int.bit_count,
                                        bit_columns(masks, size, 8)))

    def test_the_largest_count_fills_its_field(self):
        counts = packed_counts([1] * ((1 << 16) - 1), 1)
        assert struct.unpack("<8H", counts) == ((1 << 16) - 1,) + (0,) * 7


class TestOpportunityUniverse:
    def test_disjoint_union(self):
        u = Universe(("alpha", "beta"))
        env = environment_of(u, ["alpha"], ["beta"])
        assert opportunity_universe(env).ordered() == ("alpha", "beta")

    def test_single_alternative_identity(self):
        u = Universe(("alpha", "beta", "gamma"))
        env = environment_of(u, ["alpha", "beta", "gamma"])
        assert opportunity_universe(env).ordered() == ("alpha", "beta", "gamma")

    def test_overlapping_union_matches_oracle(self):
        u = Universe(("alpha", "beta", "gamma"))
        env = environment_of(u, ["alpha", "beta"], ["beta", "gamma"])
        expected = sorted(oracle_union([["alpha", "beta"], ["beta", "gamma"]]))
        got = opportunity_universe(env)
        assert sorted(got.members) == expected
        assert got.ordered() == ("alpha", "beta", "gamma")


class TestExigenceUniverse:
    def test_single_crisp_individual(self):
        u = Universe(("alpha", "beta"))
        soc = crisp_society(u, ["alpha"])
        assert exigence_universe(soc).ordered() == ("alpha",)

    def test_two_individuals(self):
        u = Universe(("alpha", "beta", "gamma"))
        soc = crisp_society(u, ["alpha"], ["alpha", "beta", "gamma"])
        assert exigence_universe(soc).ordered() == ("alpha", "beta", "gamma")

    def test_support_ignores_zero_weights(self):
        u = Universe(("a", "b", "c"))
        soc = Society((
            Individual("v1", u, {"a": 0.5}),
            Individual("v2", u, {"b": 0.0, "c": 0.3}),
        ))
        expected = [t for t, w in [("a", 0.5), ("b", 0.0), ("c", 0.3)] if w > 0]
        assert exigence_universe(soc).ordered() == tuple(expected) == ("a", "c")


class TestPartition:
    def test_mixed_case_matches_oracle(self):
        u = Universe(("alpha", "beta", "gamma"))
        env = environment_of(u, ["alpha", "beta"])
        soc = crisp_society(u, ["beta", "gamma"])
        part = partition_universe(env, soc)
        offered, requested = ["alpha", "beta"], ["beta", "gamma"]
        assert sorted(part.offered_only.members) == sorted(oracle_difference(offered, requested))
        assert sorted(part.requested_only.members) == sorted(oracle_difference(requested, offered))
        assert sorted(part.matched.members) == sorted(oracle_intersection(offered, requested))
        assert part.offered_only.ordered() == ("alpha",)
        assert part.requested_only.ordered() == ("gamma",)
        assert part.matched.ordered() == ("beta",)

    def test_identical_universes(self):
        u = Universe(("alpha",))
        part = partition_universe(environment_of(u, ["alpha"]),
                                  crisp_society(u, ["alpha"]))
        assert part.offered_only.ordered() == ()
        assert part.requested_only.ordered() == ()
        assert part.matched.ordered() == ("alpha",)

    def test_disjoint_universes(self):
        u = Universe(("alpha", "beta"))
        part = partition_universe(environment_of(u, ["alpha"]),
                                  crisp_society(u, ["beta"]))
        assert part.offered_only.ordered() == ("alpha",)
        assert part.requested_only.ordered() == ("beta",)
        assert part.matched.ordered() == ()

    def test_mismatched_universes_rejected(self):
        u1, u2 = Universe(("a",)), Universe(("a", "b"))
        with pytest.raises(ScenarioError, match="different universes"):
            partition_universe(environment_of(u1, ["a"]), crisp_society(u2, ["a"]))


class TestProperties:
    def test_subset_of_declared_universe(self):
        rng = random.Random(101)
        for _ in range(150):
            u, env, soc = random_scenario_parts(rng, max_universe=12)
            assert opportunity_universe(env).members <= set(u.objectives)
            assert exigence_universe(soc).members <= set(u.objectives)

    def test_partition_disjoint_and_covering(self):
        rng = random.Random(102)
        for _ in range(150):
            u, env, soc = random_scenario_parts(rng, max_universe=12)
            part = partition_universe(env, soc)
            a, b, c = (part.offered_only.members, part.requested_only.members,
                       part.matched.members)
            assert not (a & b) and not (a & c) and not (b & c)
            union = a | b | c
            # brute-force membership scan over the declared universe
            for token in u.objectives:
                offered = token in opportunity_universe(env).members
                requested = token in exigence_universe(soc).members
                assert (token in union) == (offered or requested)
                assert (token in a) == (offered and not requested)
                assert (token in b) == (requested and not offered)
                assert (token in c) == (offered and requested)

    def test_idempotent_under_duplication(self):
        rng = random.Random(103)
        for _ in range(100):
            u = random_universe(rng)
            env = random_environment(rng, u)
            soc = random_society(rng, u)
            env_dup = Environment(env.alternatives + (
                Alternative("copy", env.alternatives[0].offers),))
            first = soc.individuals[0]
            soc_dup = Society(soc.individuals + (
                Individual("copy", u, first.membership),))
            assert opportunity_universe(env_dup) == opportunity_universe(env)
            assert exigence_universe(soc_dup) == exigence_universe(soc)

    def test_results_in_declaration_order(self):
        rng = random.Random(104)
        for _ in range(100):
            u, env, soc = random_scenario_parts(rng)
            for result in (opportunity_universe(env), exigence_universe(soc)):
                ordered = result.ordered()
                positions = [u.position(t) for t in ordered]
                assert positions == sorted(positions)
