"""Flower-atomic block planning for Flower-CDN scenarios.

Flower-CDN's protocol traffic is *website-local*: gossip, keepalives and
pushes stay inside one ``(website, locality)`` content overlay, summary
refreshes travel between a website's own per-locality directories
(``d(ws, loc)`` to ``d(ws, loc±1)``), and query redirection hops only
between directories of the queried website.  A website's whole "flower"
(its D-ring directories across all localities plus all of its content
overlays) is therefore an atomic unit that never exchanges protocol
messages with another website's flower.

A *block* is one queryable website's flower (plus a share of the
non-queryable websites, whose directories carry no load but must tick
somewhere): :func:`plan_blocks` cuts the catalogue into blocks, and a run
simulates them one after another — or placed over worker processes — each
in a complete engine that staffs its own websites' directories on the
deployment's static D-ring, so ring routing, bootstrap-node choice and
client assignment are identical to the undivided deployment.  Because the
cut is website-atomic, no block ever has a message for another, which is what
makes a run cut into blocks reproduce the one-block run's documents exactly,
however the blocks are grouped or placed — and why each block simply runs to
the horizon on its own.

Whether a spec may be cut is decided by :func:`inseparable_reason`: its churn
and fault models each declare themselves website-separable (see
:mod:`repro.scenarios.models`; churn victims and per-message loss draws come
from globally-ordered streams and are not).  A spec that may not runs as the
plan of one block — the whole catalogue (:mod:`repro.sim.sharded`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec


# -- separability --------------------------------------------------------------


def inseparable_reason(spec: "ScenarioSpec") -> Optional[str]:
    """Why ``spec`` must run as one whole-catalogue block (``None``: it need not).

    Cutting a run into blocks requires that every source of randomness is
    website-scoped or replicated identically in every block.  Each churn and
    fault model answers that for itself through ``website_separable(spec)``;
    a model that does not say (anything registered from outside) is taken to
    draw from globally-ordered streams.
    """
    from repro.scenarios.models import build_churn_model, build_fault_model

    for kind, ref, build in (
        ("churn", spec.churn_model, build_churn_model),
        ("fault", spec.fault_model, build_fault_model),
    ):
        separable = getattr(build(ref), "website_separable", None)
        if separable is None or not separable(spec):
            return (
                f"{kind} model {ref.name!r} is not website-separable for {spec.name!r}: "
                "its victims or drops come from globally-ordered streams and cannot "
                "be partitioned deterministically"
            )
    return None


# -- block planning ------------------------------------------------------------


def queryable_websites(spec: "ScenarioSpec") -> Tuple[str, ...]:
    """The websites the workload can target, in catalogue order.

    Stationary workloads query the first ``active_websites`` catalogue
    entries; programs query the union of every phase's (possibly rotated)
    active window.  Mirrors
    :meth:`repro.workload.generator.QueryGenerator._phase_window` exactly.
    """
    from repro.workload.catalog import Catalog

    catalog = Catalog.synthetic(spec.num_websites, spec.objects_per_website)
    names = [site.name for site in catalog.websites]
    count = spec.active_websites
    spans = spec.compiled_program()
    if not spans:
        return tuple(names[:count])
    used = sorted(
        {
            (span.hotspot_rotation + i) % len(names)
            for span in spans
            for i in range(count)
        }
    )
    return tuple(names[i] for i in used)


def plan_blocks(spec: "ScenarioSpec") -> Tuple[Tuple[str, ...], ...]:
    """Cut the *whole catalogue* into one block per queryable website.

    Every catalogue website is owned by exactly one block — including the
    non-queryable ones, dealt round-robin over the blocks: their directories
    carry no load but must exist somewhere because reconciliation rounds
    republish every alive directory's summary.  The plan is a pure function
    of ``spec`` — but results do not depend on it: each website's evolution
    is identical however the websites are grouped.
    """
    from repro.workload.catalog import Catalog

    catalog = Catalog.synthetic(spec.num_websites, spec.objects_per_website)
    blocks: List[List[str]] = [[name] for name in queryable_websites(spec)]
    queryable = {block[0] for block in blocks}
    riders = [site.name for site in catalog.websites if site.name not in queryable]
    for index, name in enumerate(riders):
        blocks[index % len(blocks)].append(name)
    return tuple(tuple(block) for block in blocks)

