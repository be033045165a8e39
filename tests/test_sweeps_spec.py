"""Tests for sweep specifications: axes, grids and per-cell seed derivation."""

import pytest

from repro.scenarios.spec import ChurnProfile
from repro.sweeps.spec import (
    KNOWN_SEED_POLICIES,
    SweepAxis,
    SweepSpec,
    derive_cell_seed,
    jsonify_value,
)


class TestSweepAxis:
    def test_single_wraps_scalars(self):
        axis = SweepAxis.single("Lgossip", "gossip_length", (5, 10, 20))
        assert axis.fields == ("gossip_length",)
        assert axis.values == ((5,), (10,), (20,))
        assert len(axis) == 3
        assert axis.display_value(0) == "5"

    def test_multi_field_axis(self):
        axis = SweepAxis(
            label="Tgossip(s)",
            fields=("gossip_period_s", "keepalive_period_s"),
            values=((60.0, 60.0), (3600.0, 3600.0)),
        )
        assert axis.display_value(1) == "3600"

    def test_explicit_display_labels(self):
        axis = SweepAxis(
            label="churn",
            fields=("churn",),
            values=((ChurnProfile(),), (ChurnProfile(content_failures_per_hour=30.0),)),
            display=("none", "heavy"),
        )
        assert axis.display_value(0) == "none"
        assert axis.display_value(1) == "heavy"

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ScenarioSpec field"):
            SweepAxis.single("x", "gossip_lenth", (5,))

    def test_unsweepable_fields_rejected(self):
        for name in ("name", "description", "seed", "tier"):
            with pytest.raises(ValueError, match="must not vary"):
                SweepAxis.single("x", name, ("value",))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty value grid"):
            SweepAxis(label="x", fields=("gossip_length",), values=())

    def test_value_arity_must_match_fields(self):
        with pytest.raises(ValueError, match="tuple of 2"):
            SweepAxis(
                label="x",
                fields=("gossip_period_s", "keepalive_period_s"),
                values=((60.0,),),
            )

    def test_display_arity_must_match_values(self):
        with pytest.raises(ValueError, match="one entry per grid point"):
            SweepAxis.single("x", "gossip_length", (5, 10), display=("five",))

    def test_to_dict_is_json_ready(self):
        import json

        axis = SweepAxis(
            label="churn",
            fields=("churn",),
            values=((ChurnProfile(content_failures_per_hour=30.0),),),
        )
        json.dumps(axis.to_dict())


class TestSweepSpec:
    def test_grid_shape_and_cell_count(self):
        sweep = SweepSpec(
            name="grid",
            axes=(
                SweepAxis.single("L", "gossip_length", (5, 10)),
                SweepAxis.single("V", "view_size", (20, 50, 70)),
            ),
        )
        assert sweep.grid_shape == (2, 3)
        assert sweep.num_cells == 6

    def test_zero_axis_sweep_has_one_cell(self):
        sweep = SweepSpec(name="point", base="squirrel-head-to-head")
        assert sweep.num_cells == 1
        compiled = sweep.compile()
        (cell,) = compiled.cells
        assert cell.assignments == ()
        assert cell.spec.name == "squirrel-head-to-head"

    def test_duplicate_field_across_axes_rejected(self):
        with pytest.raises(ValueError, match="set by both"):
            SweepSpec(
                name="dup",
                axes=(
                    SweepAxis.single("a", "gossip_length", (5,)),
                    SweepAxis.single("b", "gossip_length", (10,)),
                ),
            )

    def test_unknown_seed_policy_rejected(self):
        with pytest.raises(ValueError, match="seed policy"):
            SweepSpec(name="bad", seed_policy="psychic")
        assert set(KNOWN_SEED_POLICIES) == {"shared", "derived"}

    def test_compile_applies_assignments(self):
        sweep = SweepSpec(
            name="grid", axes=(SweepAxis.single("L", "gossip_length", (5, 20)),)
        )
        compiled = sweep.compile()
        assert [cell.spec.gossip_length for cell in compiled.cells] == [5, 20]
        # Untouched fields come from the base scenario.
        assert all(cell.spec.view_size == 50 for cell in compiled.cells)

    def test_compile_scales_the_base_before_pinning(self):
        sweep = SweepSpec(
            name="grid", axes=(SweepAxis.single("V", "view_size", (70,)),)
        )
        compiled = sweep.compile(scale=0.25)
        (cell,) = compiled.cells
        assert compiled.scale == 0.25
        assert cell.spec.num_hosts == 150  # 600 * 0.25
        assert cell.spec.view_size == 70  # axis value is absolute

    def test_compile_rejects_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            SweepSpec(name="grid").compile(scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
    def test_compile_rejects_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(name="grid").compile(scale=scale)

    def test_base_spec_override(self):
        from repro.scenarios.library import get_scenario

        sweep = SweepSpec(
            name="grid", axes=(SweepAxis.single("L", "gossip_length", (5,)),)
        )
        compiled = sweep.compile(base_spec=get_scenario("flash-crowd"))
        assert compiled.base_name == "flash-crowd"
        assert compiled.cells[0].spec.query_rate_per_s == 6.0


class TestSeedDerivation:
    def test_shared_policy_uses_one_seed(self):
        sweep = SweepSpec(
            name="grid",
            seed_policy="shared",
            axes=(SweepAxis.single("L", "gossip_length", (5, 10, 20)),),
        )
        compiled = sweep.compile(seed=7)
        assert {cell.seed for cell in compiled.cells} == {7}

    def test_derived_policy_gives_independent_seeds(self):
        sweep = SweepSpec(
            name="grid",
            seed_policy="derived",
            axes=(SweepAxis.single("L", "gossip_length", (5, 10, 20)),),
        )
        compiled = sweep.compile(seed=7)
        seeds = [cell.seed for cell in compiled.cells]
        assert len(set(seeds)) == 3

    def test_derived_seeds_are_stable_across_axis_reordering(self):
        length_axis = SweepAxis.single("L", "gossip_length", (5, 10))
        view_axis = SweepAxis.single("V", "view_size", (20, 50))
        forward = SweepSpec(
            name="fwd", seed_policy="derived", axes=(length_axis, view_axis)
        ).compile(seed=42)
        backward = SweepSpec(
            name="bwd", seed_policy="derived", axes=(view_axis, length_axis)
        ).compile(seed=42)
        by_assignment_fwd = {
            frozenset(cell.assignments): cell.seed for cell in forward.cells
        }
        by_assignment_bwd = {
            frozenset(cell.assignments): cell.seed for cell in backward.cells
        }
        assert by_assignment_fwd == by_assignment_bwd

    def test_derived_seed_depends_on_base_seed_and_values(self):
        pins = (("gossip_length", 5),)
        assert derive_cell_seed(42, pins) != derive_cell_seed(43, pins)
        assert derive_cell_seed(42, pins) != derive_cell_seed(
            42, (("gossip_length", 10),)
        )

    def test_derived_seed_handles_dataclass_values(self):
        light = ChurnProfile(content_failures_per_hour=30.0)
        first = derive_cell_seed(42, (("churn", light),))
        second = derive_cell_seed(42, (("churn", ChurnProfile(content_failures_per_hour=30.0)),))
        assert first == second


class TestJsonify:
    def test_dataclasses_become_dicts(self):
        profile = ChurnProfile(content_failures_per_hour=30.0)
        assert jsonify_value(profile) == {
            "content_failures_per_hour": 30.0,
            "directory_failures_per_hour": 0.0,
            "locality_changes_per_hour": 0.0,
        }

    def test_tuples_become_lists(self):
        assert jsonify_value((1, (2, 3))) == [1, [2, 3]]

    def test_scalars_pass_through(self):
        assert jsonify_value(5) == 5
        assert jsonify_value("x") == "x"
