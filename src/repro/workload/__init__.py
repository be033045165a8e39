"""Synthetic workload generation.

The paper uses a synthetic workload because "available web traces reflect
object accesses while we are interested in website accesses": |W| websites
each publish a set of requestable objects, only a subset of websites is
*active* (receives queries), object popularity within a website follows a
Zipf law (Breslau et al.), queries arrive at a fixed aggregate rate, and each
query originates either from a new client or from an existing content peer of
the targeted website, drawn from a random locality.
"""

from repro.workload.catalog import Catalog, ObjectId, Website
from repro.workload.zipf import ZipfSampler
from repro.workload.generator import Query, QueryGenerator, WorkloadConfig

__all__ = [
    "Catalog",
    "Website",
    "ObjectId",
    "ZipfSampler",
    "Query",
    "QueryGenerator",
    "WorkloadConfig",
]
