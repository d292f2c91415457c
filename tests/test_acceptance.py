"""Acceptance suite.

One test per criterion; each prints a PASS line with its runtime when it
succeeds (run pytest with -s to see them).  All equality checks are exact:
utilities are integers or Fractions end to end.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from setchoice import (
    Alternative,
    Environment,
    Individual,
    NonCrispIndividual,
    Society,
    Universe,
    build_process,
    cardinal_utility,
    evaluate,
    fuzzy_utility,
    individual_profile,
    normalized_cardinal_utility,
    partition_universe,
    rank,
    exigence_universe,
    opportunity_universe,
)
from setchoice.evaluation import SocialProfile, exact_mean

from _gen import (
    oracle_cardinal,
    oracle_fuzzy,
    oracle_mean,
    oracle_normalized,
    random_crisp_individual,
    random_environment,
    random_fuzzy_individual,
    random_scenario_parts,
    random_universe,
)
from _golden import CASES, GOLDEN_DIR, ROOT, run_cli

INVALID_DIR = Path(__file__).resolve().parent / "data" / "invalid"


def _finish(name: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"{name} took {elapsed:.2f}s (limit {limit}s)"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_c1_two_individual_reference_example():
    """Cardinal utilities 1 and 3, normalized utilities exactly 1."""
    started = time.perf_counter()
    u = Universe(("alpha", "beta", "gamma"))
    offer_all = Alternative("m", u.subset(["alpha", "beta", "gamma"]))
    modest = Individual.crisp("p", u, ["alpha"])
    demanding = Individual.crisp("q", u, ["alpha", "beta", "gamma"])

    assert cardinal_utility(offer_all, modest) == 1
    assert cardinal_utility(offer_all, demanding) == 3
    assert normalized_cardinal_utility(offer_all, modest) == Fraction(1)
    assert normalized_cardinal_utility(offer_all, demanding) == Fraction(1)
    _finish("C1 reference example reproduced exactly", started, 1.0)


def test_c2_crisp_reduction_theorem():
    """fuzzy == normalized on 1,000 random crisp scenarios, zero error."""
    started = time.perf_counter()
    rng = random.Random(0xC2)
    checked = 0
    for _ in range(1000):
        env, soc = random_scenario_parts(rng, max_universe=10,
                                         max_alternatives=5,
                                         max_individuals=5, crisp=True)
        for alt in env.alternatives:
            for ind in soc.individuals:
                assert (fuzzy_utility(alt, ind)
                        == normalized_cardinal_utility(alt, ind))
                checked += 1
    assert checked >= 1000
    _finish(f"C2 crisp reduction exact on {checked} pairs "
            "from 1000 scenarios", started, 10.0)


def test_c3_brute_force_oracle_equivalence():
    """All measures match an element-by-element oracle on every defined
    (alternative, individual) pair in 1,000 random scenarios; the mean
    social profile matches a sum/divide oracle."""
    started = time.perf_counter()
    rng = random.Random(0xC3)
    pair_checks = 0
    for _ in range(1000):
        env, soc = random_scenario_parts(rng, max_universe=8,
                                         max_alternatives=5,
                                         max_individuals=5)
        for alt in env.alternatives:
            offers = list(alt.offers.members)
            for ind in soc.individuals:
                assert fuzzy_utility(alt, ind) == oracle_fuzzy(
                    offers, ind.membership, env.universe.objectives)
                if ind.is_crisp:
                    required = list(ind.support)
                    assert cardinal_utility(alt, ind) == oracle_cardinal(
                        offers, required)
                    assert normalized_cardinal_utility(alt, ind) == (
                        oracle_normalized(offers, required))
                else:
                    with pytest.raises(NonCrispIndividual):
                        cardinal_utility(alt, ind)
                pair_checks += 1

    mean_checks = 0
    for _ in range(300):
        env, soc = random_scenario_parts(rng, max_universe=8,
                                         max_alternatives=6,
                                         max_individuals=6)
        process = build_process("fuzzy", env, soc)
        social = evaluate(process)
        for m in range(len(env)):
            column = [p.values[m] for p in process.profiles]
            assert social.values[m] == oracle_mean(column)
            mean_checks += 1
    _finish(f"C3 oracle equivalence on {pair_checks} measure pairs and "
            f"{mean_checks} mean entries", started, 30.0)


class TestC4Properties:
    CASES_PER_PROPERTY = 120

    def test_c4_range_bounds(self):
        started = time.perf_counter()
        rng = random.Random(0xC401)
        for _ in range(self.CASES_PER_PROPERTY):
            env, soc = random_scenario_parts(rng)
            for alt in env.alternatives:
                for ind in soc.individuals:
                    assert 0 <= fuzzy_utility(alt, ind) <= 1
                    if ind.is_crisp:
                        assert 0 <= normalized_cardinal_utility(alt, ind) <= 1
        _finish("C4.1 range bounds", started, 30.0)

    def test_c4_monotone_under_offer_growth(self):
        started = time.perf_counter()
        rng = random.Random(0xC402)
        for _ in range(self.CASES_PER_PROPERTY):
            u = random_universe(rng, min_size=2)
            small = random_environment(rng, u, 1).alternatives[0]
            grown = set(small.offers.members)
            grown.update(rng.sample(u.objectives, rng.randint(1, len(u))))
            big = Alternative("big", u.subset(grown))
            weighted = random_fuzzy_individual(rng, u, "w")
            crisp = random_crisp_individual(rng, u, "c")
            assert fuzzy_utility(small, weighted) <= fuzzy_utility(big, weighted)
            assert cardinal_utility(small, crisp) <= cardinal_utility(big, crisp)
        _finish("C4.2 monotone in offers", started, 30.0)

    def test_c4_padding_invariance(self):
        started = time.perf_counter()
        rng = random.Random(0xC403)
        for _ in range(self.CASES_PER_PROPERTY):
            u = random_universe(rng)
            alt = random_environment(rng, u, 1).alternatives[0]
            crisp = random_crisp_individual(rng, u, "c")
            weighted = random_fuzzy_individual(rng, u, "w")
            padded = Universe(u.objectives + ("padx", "pady"))
            alt_p = Alternative(alt.id, padded.subset(alt.offers.members))
            crisp_p = Individual(crisp.id, padded, crisp.membership)
            weighted_p = Individual(weighted.id, padded, weighted.membership)
            assert cardinal_utility(alt_p, crisp_p) == cardinal_utility(alt, crisp)
            assert (normalized_cardinal_utility(alt_p, crisp_p)
                    == normalized_cardinal_utility(alt, crisp))
            assert (fuzzy_utility(alt_p, weighted_p)
                    == fuzzy_utility(alt, weighted))
        _finish("C4.3 padding invariance", started, 30.0)

    def test_c4_partition_disjoint_and_covering(self):
        started = time.perf_counter()
        rng = random.Random(0xC404)
        for _ in range(self.CASES_PER_PROPERTY):
            env, soc = random_scenario_parts(rng, max_universe=12)
            part = partition_universe(env, soc)
            a, b, c = (part.offered_only.members, part.requested_only.members,
                       part.matched.members)
            assert not (a & b) and not (a & c) and not (b & c)
            assert (a | b | c) == (opportunity_universe(env).members
                                   | exigence_universe(soc).members)
        _finish("C4.4 partition disjoint and covering", started, 30.0)

    def test_c4_mean_anonymity_and_duplication(self):
        started = time.perf_counter()
        rng = random.Random(0xC405)
        for _ in range(self.CASES_PER_PROPERTY):
            env, soc = random_scenario_parts(rng)
            order = list(range(len(soc)))
            rng.shuffle(order)
            permuted = Society(tuple(soc.individuals[i] for i in order))
            doubled = Society(soc.individuals + tuple(
                Individual(f"{ind.id}_twin", env.universe, ind.membership)
                for ind in soc.individuals))
            base = evaluate(build_process("fuzzy", env, soc)).values
            assert evaluate(build_process("fuzzy", env, permuted)).values == base
            assert evaluate(build_process("fuzzy", env, doubled)).values == base
        _finish("C4.5 mean anonymity and duplication", started, 30.0)

    def test_c4_ranking_scale_invariance(self):
        started = time.perf_counter()
        rng = random.Random(0xC406)
        for _ in range(self.CASES_PER_PROPERTY):
            env, soc = random_scenario_parts(rng)
            process = build_process("fuzzy", env, soc)
            base = evaluate(process)
            scale = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            scaled_social = SocialProfile(*exact_mean(
                [[num * scale.numerator for num in p.nums]
                 for p in process.profiles],
                [p.den * scale.denominator for p in process.profiles]))
            assert scaled_social.values == tuple(v * scale for v in base.values)
            assert ([t.ids for t in rank(base, env).tiers]
                    == [t.ids for t in rank(scaled_social, env).tiers])
        _finish("C4.6 ranking scale invariance", started, 30.0)

    def test_c4_ranking_is_permutation(self):
        started = time.perf_counter()
        rng = random.Random(0xC407)
        for _ in range(self.CASES_PER_PROPERTY):
            env, soc = random_scenario_parts(rng)
            social = evaluate(build_process("fuzzy", env, soc))
            ranking = rank(social, env)
            assert sorted(ranking.ordered_ids) == sorted(env.ids)
            values = [t.value for t in ranking.tiers]
            assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
        _finish("C4.7 ranking is a permutation, tiers strictly decreasing",
                started, 30.0)


def test_c5_cli_golden_outputs_and_invalid_corpus():
    """Bundled scenarios render byte-identically to the committed outputs in
    all three formats; every invalid file exits 1 and names a location."""
    started = time.perf_counter()
    for golden_name, scenario, args in CASES:
        expected = (GOLDEN_DIR / golden_name).read_bytes()
        assert run_cli(scenario, args) == expected, golden_name

    invalid_files = sorted(INVALID_DIR.glob("*.json"))
    assert len(invalid_files) >= 6
    for path in invalid_files:
        proc = subprocess.run(
            [sys.executable, "-m", "setchoice", "validate", str(path)],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 1, path.name
        # every finding line carries a location; check one is printed
        assert "error" in proc.stdout
        location_column = [line.split()[1] for line in
                           proc.stdout.splitlines()[1:] if line]
        assert location_column, path.name
    _finish(f"C5 {len(CASES)} golden outputs byte-identical, "
            f"{len(invalid_files)} invalid files rejected with locations",
            started, 60.0)
