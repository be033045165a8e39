"""Tests for parallel scenario execution (multiprocessing over the registry)."""

import io

import pytest

from repro import cli
from repro.core.system import InfeasibleScenarioError
from repro.scenarios import parallel


#: small, fast scenarios used to keep the multiprocessing tests cheap
FAST = ["cold-start", "paper-default"]
#: the scale the fast tests run at (well above every scaling floor)
SCALE = 0.25


class TestRunScenarios:
    def test_parallel_matches_sequential(self):
        sequential = parallel.run_scenarios(FAST, jobs=1, scale=SCALE)
        parallelised = parallel.run_scenarios(FAST, jobs=2, scale=SCALE)
        assert sequential == parallelised

    def test_results_keyed_and_ordered_by_request(self):
        digests = parallel.run_scenarios(FAST, jobs=1, scale=SCALE)
        assert list(digests) == FAST
        for name, digest in digests.items():
            assert digest["scenario"] == name
            assert "systems" in digest

    def test_seed_override_propagates(self):
        digests = parallel.run_scenarios(["cold-start"], jobs=1, seed=7, scale=SCALE)
        assert digests["cold-start"]["seed"] == 7

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            parallel.run_scenarios(["no-such-scenario"], jobs=1)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            parallel.run_scenarios(FAST, jobs=0)

    def test_default_jobs_positive(self):
        assert parallel.default_jobs() >= 1

    def test_default_jobs_respects_cpu_affinity(self):
        import os

        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        assert parallel.default_jobs() == max(1, len(os.sched_getaffinity(0)))


def _double(x):
    return 2 * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom on three")
    return x


def _infeasible_on_three(x):
    if x == 3:
        raise InfeasibleScenarioError(5, 4, 6)
    return x


class TestMapTasks:
    def test_sequential_and_parallel_agree(self):
        tasks = list(range(8))
        assert parallel.map_tasks(_double, tasks, jobs=1) == [
            2 * x for x in tasks
        ]
        assert parallel.map_tasks(_double, tasks, jobs=2) == [
            2 * x for x in tasks
        ]

    def test_chunksize_preserves_order(self):
        tasks = list(range(16))
        chunked = parallel.map_tasks(_double, tasks, jobs=2, chunksize=4)
        assert chunked == [2 * x for x in tasks]

    def test_invalid_chunksize_rejected(self):
        with pytest.raises(ValueError):
            parallel.map_tasks(_double, [1, 2], jobs=2, chunksize=0)

    def test_worker_exception_identifies_task_sequential(self):
        with pytest.raises(parallel.TaskError) as excinfo:
            parallel.map_tasks(_fail_on_three, [1, 2, 3, 4], jobs=1)
        assert excinfo.value.index == 2
        assert "3" in excinfo.value.task_repr
        assert "boom on three" in str(excinfo.value)

    def test_worker_exception_identifies_task_parallel(self):
        with pytest.raises(parallel.TaskError) as excinfo:
            parallel.map_tasks(_fail_on_three, [0, 1, 2, 3], jobs=2)
        assert excinfo.value.index == 3
        assert "ValueError" in excinfo.value.cause_text


    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "pooled"])
    def test_infeasible_scenario_crosses_the_pool_as_itself(self, jobs):
        """The one typed, expected failure is re-raised, not wrapped."""
        with pytest.raises(InfeasibleScenarioError) as excinfo:
            parallel.map_tasks(_infeasible_on_three, [0, 1, 2, 3], jobs=jobs)
        error = excinfo.value
        assert (error.locality, error.hosts_available, error.directories_required) == (5, 4, 6)
        assert str(error) == str(InfeasibleScenarioError(5, 4, 6))
        assert "\n" not in str(error)


class TestCheckGoldens:
    def test_all_goldens_pass_in_parallel(self):
        results = parallel.check_goldens(jobs=2)
        failing = {name: m for name, m in results.items() if m}
        assert not failing, failing


class TestCli:
    def _run(self, args):
        buffer = io.StringIO()
        code = cli.main(args, out=buffer)
        return code, buffer.getvalue()

    def test_run_all_prints_digest_per_scenario(self):
        code, output = self._run(
            ["scenarios", "run", "--all", "--jobs", "1", "--scale", str(SCALE)]
        )
        assert code == 0
        assert "paper-default" in output
        assert "gossip-starved" in output

    def test_all_with_name_rejected(self):
        code = cli.main(
            ["scenarios", "run", "paper-default", "--all"], out=io.StringIO()
        )
        assert code == 2

    def test_jobs_without_all_rejected(self):
        code = cli.main(
            ["scenarios", "run", "paper-default", "--jobs", "2"], out=io.StringIO()
        )
        assert code == 2

    def test_missing_name_without_all_rejected(self):
        code = cli.main(["scenarios", "run"], out=io.StringIO())
        assert code == 2

    def test_check_golden_all(self):
        code, output = self._run(
            ["scenarios", "run", "--all", "--check-golden", "--jobs", "1"]
        )
        assert code == 0
        assert output.count("ok") >= 8
