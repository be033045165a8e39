"""Statistical and equivalence tests for the O(1) Zipf sampler."""

import bisect
import random

import pytest

from repro.workload.zipf import ZipfSampler
from tests.reference.workload import zipf_masses


class TestStatistics:
    def test_draws_match_analytic_masses_chi_squared(self):
        """Draws must follow the analytic Zipf masses.

        Chi-squared goodness of fit with dof = n - 1 = 49; the statistic
        concentrates around dof with standard deviation sqrt(2*dof) ~ 9.9, so
        a threshold of dof + 5 sigma ~ 98.5 gives a deterministic test (fixed
        seed) with a wide safety margin against false failures.
        """
        population = 50
        draws = 200_000
        sampler = ZipfSampler(population, alpha=0.8)
        rng = random.Random(7)
        counts = [0] * population
        for rank in sampler.sample_many(rng, draws):
            counts[rank] += 1
        masses = zipf_masses(population, 0.8)
        chi_squared = sum(
            (counts[rank] - draws * masses[rank]) ** 2 / (draws * masses[rank])
            for rank in range(population)
        )
        assert chi_squared < 98.5, f"chi-squared {chi_squared:.1f} too large for dof 49"

    def test_uniform_case(self):
        sampler = ZipfSampler(4, alpha=0.0)
        rng = random.Random(5)
        counts = [0] * 4
        for rank in sampler.sample_many(rng, 40_000):
            counts[rank] += 1
        for count in counts:
            assert count == pytest.approx(10_000, rel=0.05)

    def test_heavy_head(self):
        sampler = ZipfSampler(100, alpha=0.8)
        rng = random.Random(3)
        ranks = sampler.sample_many(rng, 3000)
        top_ten = sum(1 for rank in ranks if rank < 10)
        assert top_ten / len(ranks) > 0.3

    def test_singleton_population(self):
        sampler = ZipfSampler(1, alpha=0.8)
        rng = random.Random(1)
        assert sampler.sample(rng) == 0


class TestCdfEquivalence:
    @pytest.mark.parametrize(
        "population,alpha", [(200, 0.8), (50, 1.1), (4, 0.0), (1, 0.8), (500, 0.7)]
    )
    def test_cdf_method_bit_identical_to_bisect(self, population, alpha):
        """The guide-table path must reproduce bisect_left draws exactly:
        the committed goldens are defined over this mapping."""
        sampler = ZipfSampler(population, alpha)
        cdf = sampler._cdf
        rng_fast, rng_reference = random.Random(123), random.Random(123)
        for _ in range(20_000):
            assert sampler.sample(rng_fast) == bisect.bisect_left(
                cdf, rng_reference.random()
            )

    def test_one_variate_per_draw(self):
        sampler = ZipfSampler(64, 0.8)
        rng = random.Random(42)
        sampler.sample_many(rng, 100)
        # After 100 draws the stream must sit exactly 100 variates in:
        # a fresh stream advanced by 100 raw draws agrees on the next one.
        reference = random.Random(42)
        for _ in range(100):
            reference.random()
        assert rng.random() == reference.random()

    def test_sample_many_equals_repeated_sample(self):
        sampler = ZipfSampler(80, 0.9)
        batched = sampler.sample_many(random.Random(9), 500)
        single_rng = random.Random(9)
        singles = [sampler.sample(single_rng) for _ in range(500)]
        assert list(batched) == singles


class TestValidation:
    def test_masses_are_the_cdf_steps(self):
        sampler = ZipfSampler(30, 0.8)
        previous = 0.0
        for rank, mass in enumerate(zipf_masses(30, 0.8)):
            assert mass == pytest.approx(sampler._cdf[rank] - previous)
            previous = sampler._cdf[rank]
