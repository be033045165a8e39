"""Table 1: the simulation parameter set.

This harness does not measure a system property; it regenerates the
parameter table the evaluation is configured with (both the paper-scale
defaults of ``FlowerConfig()`` and the scale actually used by the benchmark
suite) so the remaining benchmarks can be interpreted against it.
"""

from repro.core.config import FlowerConfig
from repro.metrics.report import format_table
from repro.scenarios.library import get_scenario


def test_table1_simulation_parameters(benchmark, bench_scenario, report):
    def build_tables():
        paper = FlowerConfig().table1()
        used = bench_scenario.to_flower_config().table1()
        return paper, used

    paper, used = benchmark.pedantic(build_tables, rounds=1, iterations=1)

    rows = [(key, paper[key], used.get(key, "-")) for key in paper]
    rows.append(("Query rate (q/s)", 6.0, bench_scenario.query_rate_per_s))
    rows.append(("Underlying hosts", 5000, bench_scenario.num_hosts))
    report(
        format_table(
            ["parameter", "paper (Table 1)", "this benchmark run"],
            rows,
            title="Table 1: simulation parameters",
        )
    )

    assert paper["Nb of localities (k)"] == 6
    assert paper["Nb of websites (|W|)"] == 100
    assert paper["View size (Vgossip)"] == 50
    assert used["Nb of localities (k)"] == bench_scenario.num_localities

    # The benchmark parameters are sourced from the scenario library
    # (paper-default is the single source of truth for this table).
    scenario = get_scenario("paper-default")
    assert used["Nb of websites (|W|)"] in (scenario.num_websites, 100)
    assert used["Gossip period (Tgossip, s)"] == scenario.gossip_period_s
