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
cut is website-atomic, the cross-block message channel is *empty by
construction* under the supported regime, which is what makes a blocked run
reproduce the monolithic documents exactly, however the blocks are grouped
or placed.

The supported regime is decided by :func:`inseparable_reason`: a flower-only
spec whose churn and fault models each declare themselves website-separable
(see :mod:`repro.scenarios.models`; churn victims and per-message loss draws
come from globally-ordered streams and are not).

The conservative lookahead is still derived and enforced as the stride at
which every block advances: the minimum delay any cross-block interaction
*would* experience (one gossip/keepalive period plus the inter-locality
latency floor).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec

#: window-count cap: pathologically small lookaheads (tiny gossip periods in
#: scaled-down tests) degrade to barrier overhead without changing results
MAX_WINDOWS = 4096


# -- validation ----------------------------------------------------------------


def inseparable_reason(spec: "ScenarioSpec") -> Optional[str]:
    """Why ``spec`` must run as one monolithic system (``None``: it need not).

    Cutting a run into blocks requires that every source of randomness is
    website-scoped or replicated identically in every block.  Each churn and
    fault model answers that for itself through ``website_separable(spec)``;
    a model that does not say (anything registered from outside) is taken to
    draw from globally-ordered streams.
    """
    from repro.scenarios.models import build_churn_model, build_fault_model

    if tuple(spec.systems) != ("flower",):
        return (
            "sharded execution supports flower-only scenarios; "
            f"{spec.name!r} runs systems {tuple(spec.systems)}"
        )
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


def validate_shardable(spec: "ScenarioSpec") -> None:
    """Raise ``ValueError`` unless ``spec`` can be cut into blocks."""
    reason = inseparable_reason(spec)
    if reason is not None:
        raise ValueError(reason)


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


# -- conservative windows ------------------------------------------------------


def conservative_lookahead_s(spec: "ScenarioSpec") -> float:
    """The minimum delay of any would-be cross-block interaction.

    The earliest a block could causally affect another is one background
    period (gossip or keepalive, whichever ticks faster) plus the
    inter-locality latency floor — no protocol message propagates faster.
    Window barriers at this stride are therefore conservative in the
    classical parallel-discrete-event sense.
    """
    period_s = min(spec.gossip_period_s, spec.effective_keepalive_period_s)
    min_latency_ms = spec.to_setup().topology.min_latency_ms
    return period_s + min_latency_ms / 1000.0


def window_boundaries(duration_s: float, lookahead_s: float) -> Tuple[float, ...]:
    """Ascending barrier times ``k * lookahead`` capped at the duration.

    The final boundary is exactly ``duration_s`` so the last window closes
    on the run horizon; an event scheduled exactly on a boundary fires in
    the window that boundary closes (the simulator's ``run(until=W)`` is
    inclusive) and is consumed exactly once.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if lookahead_s <= 0 or lookahead_s >= duration_s:
        return (duration_s,)
    if duration_s / lookahead_s > MAX_WINDOWS:
        lookahead_s = duration_s / MAX_WINDOWS
    boundaries: List[float] = []
    k = 1
    while True:
        boundary = k * lookahead_s
        if boundary >= duration_s:
            break
        boundaries.append(boundary)
        k += 1
    boundaries.append(duration_s)
    return tuple(boundaries)
