"""Tests for compiled workload phases and the program-aware trace path.

The load-bearing invariant: a *homogeneous* program (every span default, or
all spans sharing the same modulation) must generate byte-identical draws to
a stationary run, the program of one span — phase boundaries may never
perturb a trace unless the phases actually differ.  That is what keeps every
pre-program golden valid.
"""

import pytest

from repro.sim.rng import RandomStreams
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.phases import PhaseSpan, segment_counts
from tests.reference.workload import trace_queries

CFG = WorkloadConfig(
    num_websites=8,
    active_websites=2,
    objects_per_website=50,
    num_localities=3,
    query_rate_per_s=2.0,
)


def make_trace(phases=None, config=CFG, seed=99, duration=1800.0):
    generator = QueryGenerator(config, RandomStreams(seed))
    return generator.generate_trace(duration, phases=phases)


def columns(trace):
    return (
        list(trace.times),
        list(trace.website_index),
        list(trace.object_rank),
        list(trace.locality),
        list(trace.prefers_new),
        [w.name for w in trace.websites],
        trace.first_query_id,
    )


class TestPhaseSpan:
    def test_validation(self):
        with pytest.raises(ValueError, match="end_s"):
            PhaseSpan(start_s=10.0, end_s=10.0)
        with pytest.raises(ValueError, match="rate_multiplier"):
            PhaseSpan(start_s=0.0, end_s=1.0, rate_multiplier=0.0)
        with pytest.raises(ValueError, match="hotspot_rotation"):
            PhaseSpan(start_s=0.0, end_s=1.0, hotspot_rotation=-1)

    def test_segment_counts_boundaries_are_half_open(self):
        times = [0.5, 1.0, 1.5, 2.0, 9.0]
        # A time equal to a boundary belongs to the next segment.
        assert segment_counts(times, [1.0, 2.0, 10.0]) == (1, 2, 2)
        # Everything at/past the final end lands in the last segment.
        assert segment_counts([11.0, 12.0], [1.0, 10.0]) == (0, 2)
        assert segment_counts([], [1.0, 10.0]) == (0, 0)


class TestProgramTraceBitIdentity:
    def test_split_anywhere_is_byte_identical_when_homogeneous(self):
        base = columns(make_trace())
        for split in (1.0, 450.0, 900.0, 1799.5):
            program = [PhaseSpan(0.0, split), PhaseSpan(split, 1800.0)]
            assert columns(make_trace(program)) == base

    def test_many_homogeneous_splits_are_byte_identical(self):
        base = columns(make_trace())
        program = [PhaseSpan(i * 180.0, (i + 1) * 180.0) for i in range(10)]
        assert columns(make_trace(program)) == base

    def test_trivial_single_span_is_byte_identical(self):
        base = columns(make_trace())
        assert columns(make_trace([PhaseSpan(0.0, 1800.0)])) == base

    def test_uniform_arrivals_homogeneous_split_byte_identical(self):
        cfg = WorkloadConfig(
            num_websites=8, active_websites=2, objects_per_website=50,
            num_localities=3, query_rate_per_s=2.0, arrival_process="uniform",
        )
        base = columns(make_trace(config=cfg))
        program = [PhaseSpan(0.0, 600.0), PhaseSpan(600.0, 1800.0)]
        assert columns(make_trace(program, config=cfg)) == base

    def test_boundary_aligned_arrival_lands_in_the_next_phase(self):
        # Uniform arrivals at 1 q/s land exactly on integer timestamps, so a
        # boundary at an arrival time exercises the half-open convention.
        cfg = WorkloadConfig(
            num_websites=8, active_websites=2, objects_per_website=50,
            num_localities=3, query_rate_per_s=1.0, arrival_process="uniform",
        )
        base = columns(make_trace(config=cfg, duration=100.0))
        program = [PhaseSpan(0.0, 50.0), PhaseSpan(50.0, 100.0)]
        assert columns(make_trace(program, config=cfg, duration=100.0)) == base

    def test_post_call_stream_state_matches_single_phase(self):
        """After a homogeneous program, every stream continues identically."""
        plain = QueryGenerator(CFG, RandomStreams(5))
        phased = QueryGenerator(CFG, RandomStreams(5))
        plain.generate_trace(1200.0)
        phased.generate_trace(
            1200.0, phases=[PhaseSpan(0.0, 400.0), PhaseSpan(400.0, 1200.0)]
        )
        follow_plain = plain.generate_trace(300.0, start_time=1200.0)
        follow_phased = phased.generate_trace(300.0, start_time=1200.0)
        assert columns(follow_plain) == columns(follow_phased)


class TestProgramModulation:
    def test_rate_multiplier_scales_arrivals(self):
        program = [
            PhaseSpan(0.0, 900.0, rate_multiplier=1.0),
            PhaseSpan(900.0, 1800.0, rate_multiplier=3.0),
        ]
        trace = make_trace(program)
        first = sum(1 for t in trace.times if t < 900.0)
        second = len(trace) - first
        assert second > 2 * first

    def test_hotspot_rotation_moves_the_active_window(self):
        program = [
            PhaseSpan(0.0, 900.0),
            PhaseSpan(900.0, 1800.0, hotspot_rotation=4),
        ]
        trace = make_trace(program)
        names = {w.name for w in trace.websites}
        assert len(names) == 4  # base pair plus the rotated pair
        boundary = next(i for i, t in enumerate(trace.times) if t >= 900.0)
        early = {trace.websites[w].name for w in trace.website_index[:boundary]}
        late = {trace.websites[w].name for w in trace.website_index[boundary:]}
        assert early.isdisjoint(late)

    def test_rotation_wraps_modulo_catalog(self):
        program = [PhaseSpan(0.0, 1800.0, hotspot_rotation=8)]  # == catalogue size
        assert columns(make_trace(program))[5] == columns(make_trace())[5]

    def test_zipf_override_steepens_the_skew(self):
        flat = make_trace([PhaseSpan(0.0, 1800.0, zipf_alpha=0.1)])
        steep = make_trace([PhaseSpan(0.0, 1800.0, zipf_alpha=2.5)])
        top_share_flat = sum(1 for r in flat.object_rank if r == 0) / len(flat)
        top_share_steep = sum(1 for r in steep.object_rank if r == 0) / len(steep)
        assert top_share_steep > 2 * top_share_flat

    def test_queries_materialise_with_rotated_websites(self):
        program = [
            PhaseSpan(0.0, 900.0),
            PhaseSpan(900.0, 1800.0, hotspot_rotation=4),
        ]
        trace = make_trace(program)
        last = trace_queries(trace)[-1]
        assert last.website in {w.name for w in trace.websites}
        assert last.website in last.object_id

    def test_program_trace_is_deterministic(self):
        program = [
            PhaseSpan(0.0, 600.0, rate_multiplier=0.5),
            PhaseSpan(600.0, 1200.0, rate_multiplier=2.0, zipf_alpha=1.3),
            PhaseSpan(1200.0, 1800.0, hotspot_rotation=2),
        ]
        assert columns(make_trace(program)) == columns(make_trace(program))
