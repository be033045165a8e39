"""Unit tests for the website catalogue and the Zipf popularity sampler."""

import random

import pytest

from repro.workload.catalog import Catalog, Website
from repro.workload.zipf import ZipfSampler


def cdf_steps(cdf):
    """The probability mass of each rank: the steps of its cumulative table."""
    return [high - low for low, high in zip([0.0] + cdf, cdf)]


class FixedDraw:
    """A stand-in ``random.Random`` whose every draw is ``u``."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


class TestWebsite:
    def test_validation(self):
        with pytest.raises(ValueError):
            Website(name="", num_objects=10)
        with pytest.raises(ValueError):
            Website(name="w.org", num_objects=0)

    def test_object_ids_are_urls_of_the_site(self):
        site = Website(name="w.org", num_objects=3)
        assert site.object_ids() == tuple(f"http://w.org/object/{i}" for i in range(3))

    def test_objects_iterates_all(self):
        site = Website(name="w.org", num_objects=5)
        assert len(list(site.objects())) == 5


class TestCatalog:
    def test_synthetic_catalog_shape(self):
        catalog = Catalog.synthetic(num_websites=7, objects_per_website=11)
        assert len(catalog) == 7
        assert sum(site.num_objects for site in catalog.websites) == 77
        assert len(catalog.names()) == 7

    def test_synthetic_requires_positive_count(self):
        with pytest.raises(ValueError):
            Catalog.synthetic(0, 10)

    def test_duplicate_website_names_rejected(self):
        site = Website(name="dup.org", num_objects=1)
        with pytest.raises(ValueError):
            Catalog(websites=[site, Website(name="dup.org", num_objects=2)])

    def test_website_lookup(self):
        catalog = Catalog.synthetic(3, 5)
        name = catalog.names()[1]
        assert catalog.website(name).name == name
        assert name in catalog
        with pytest.raises(KeyError):
            catalog.website("missing.org")


class TestZipfSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, alpha=-1)

    def test_probabilities_sum_to_one(self):
        cdf = ZipfSampler(50, alpha=0.8)._cdf
        assert len(cdf) == 50
        assert cdf[-1] == 1.0  # exactly: a draw u < 1 always finds a rank
        assert sum(cdf_steps(cdf)) == pytest.approx(1.0)

    def test_probability_decreases_with_rank(self):
        steps = cdf_steps(ZipfSampler(100, alpha=0.8)._cdf)
        assert all(step > 0.0 for step in steps)
        assert all(a >= b - 1e-12 for a, b in zip(steps, steps[1:]))

    def test_alpha_zero_is_uniform(self):
        for step in cdf_steps(ZipfSampler(4, alpha=0.0)._cdf):
            assert step == pytest.approx(0.25)

    @pytest.mark.parametrize("population", [1, 7, 100])
    def test_extreme_draws_map_to_the_end_ranks(self, population):
        sampler = ZipfSampler(population, alpha=0.8)
        assert sampler.sample(FixedDraw(0.0)) == 0
        assert sampler.sample(FixedDraw(1.0 - 2.0 ** -53)) == population - 1

    def test_samples_within_population(self):
        sampler = ZipfSampler(20, alpha=1.0)
        rng = random.Random(3)
        ranks = sampler.sample_many(rng, 500)
        assert all(0 <= rank < 20 for rank in ranks)

    def test_low_ranks_dominate_samples(self):
        sampler = ZipfSampler(100, alpha=0.8)
        rng = random.Random(3)
        ranks = sampler.sample_many(rng, 3000)
        top_ten = sum(1 for rank in ranks if rank < 10)
        assert top_ten / len(ranks) > 0.3  # heavy head, as in web workloads
