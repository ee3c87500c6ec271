"""Smoke + shape tests for the experiment modules (tiny scales).

Each test regenerates a paper table/figure at reduced size and asserts
the *shape* property the paper reports — the same checks EXPERIMENTS.md
records at full benchmark scale.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments import registry
from repro.experiments import (fig01_io_profile, fig02_cpu_collective,
                               fig03_cpu_independent, fig09_ratio_speedup,
                               fig10_scalability, fig11_overhead,
                               fig12_metadata, fig13_wrf, fig16_intranode,
                               table1_incite)


def setting(result, key):
    return dict(result.settings)[key]


def test_registry_lists_all_paper_artifacts():
    assert registry.names() == ["table1", "fig1", "fig2", "fig3", "fig9",
                                "fig10", "fig11", "fig12", "fig13",
                                "fig14", "fig15", "fig16"]
    with pytest.raises(KeyError):
        registry.run("fig99")


def test_table1():
    r = registry.run("table1")
    assert len(r.rows) == 10
    assert setting(r, "total off-line (TB)") == 805
    assert "FLASH" in r.render()


def test_fig1_shape():
    r = fig01_io_profile.run()  # the calibrated default scale
    assert r.headers == ["iteration", "read_s", "shuffle_s"]
    assert len(r.rows) >= 30
    ratio = setting(r, "shuffle/read per-iteration ratio")
    # Paper: shuffle consumes substantial time, approaching the read.
    assert 0.25 < ratio < 1.5


def test_fig2_fig3_shapes():
    r2 = fig02_cpu_collective.run(iterations=6, bins=6)
    r3 = fig03_cpu_independent.run(iterations=6, bins=6)
    # Wait dominates both profiles.
    assert setting(r2, "overall wait%") > 50
    assert setting(r3, "overall wait%") > 50
    # The shuffle gives collective I/O a larger sys component.
    assert setting(r2, "overall sys%") > setting(r3, "overall sys%")
    # Independent non-contiguous I/O is slower for the same request.
    assert setting(r3, "job time (s)") > setting(r2, "job time (s)")


def test_fig9_shape():
    r = fig09_ratio_speedup.run(per_rank_mib=0.5,
                                ratios=((5, 1), (1, 1), (1, 5)))
    speedups = r.column("speedup")
    assert len(speedups) == 3
    # Peak in the middle (at 1:1), both sides lower.
    assert speedups[1] == max(speedups)
    assert all(s > 1.0 for s in speedups)


@pytest.mark.parametrize("ratios", [((1, 1),), ((2, 1), (1, 2))])
def test_fig9_rejects_degenerate_ratio_sweep(ratios):
    # Fewer than 3 ratios leaves one summary half empty.
    with pytest.raises(ConfigError, match="at least 3"):
        fig09_ratio_speedup.run(per_rank_mib=0.5, ratios=ratios)


def test_fig10_shape():
    r = fig10_scalability.run(per_rank_mib=0.5, process_counts=(24, 120))
    speedups = r.column("speedup")
    times = r.column("cc_s")
    assert all(s > 1.0 for s in speedups)
    # Weak scaling: more processes, more total work, more time.
    assert times[-1] > times[0]
    # The paper's trend: speedup grows with scale.
    assert speedups[-1] > speedups[0]


def test_fig11_shape():
    r = fig11_overhead.run(total_mib_small=24.0, process_counts=(128, 256))
    mpi = r.column("MPI-40G_us")
    cc40 = r.column("CC-40G_us")
    cc80 = r.column("CC-80G_us")
    # Decreasing with process count.
    assert mpi[1] < mpi[0]
    # CC's local reduction is far below MPI's reduction stage.
    assert all(c < m for c, m in zip(cc40, mpi))
    # More workload, more overhead.
    assert all(b >= a for a, b in zip(cc40, cc80))


def test_fig12_shape():
    r = fig12_metadata.run(scale=0.25, buffer_sizes_mb=(1, 8, 24))
    meta = r.column("metadata_KiB")
    # Steep drop from the smallest buffer, then flattening.
    assert meta[0] > 1.5 * meta[1]
    assert meta[1] < 2.0 * meta[2]
    assert meta[2] <= meta[1]


def test_fig13_shape():
    r = fig13_wrf.run(scale=0.02, sizes=((50, 0.25), (100, 0.5)))
    speedups = r.column("speedup")
    assert all(s > 1.1 for s in speedups)
    # Time grows with workload size.
    assert r.column("cc_s")[1] > r.column("cc_s")[0]


def test_fig13_truth_verification():
    assert fig13_wrf.verify_against_truth(scale=0.02)


def test_fig16_shape():
    r = fig16_intranode.run(nprocs=16, per_rank_kib=192, rpns=(1, 2, 4))
    # Every row's data is bit-identical between the two protocols.
    assert all(r.column("result_ok"))
    # Above one rank per node, two-level sends strictly fewer
    # cross-node bytes on every row (both pipelines).
    for rpn, one, two in zip(r.column("ranks_per_node"),
                             r.column("inter_1lvl_kib"),
                             r.column("inter_2lvl_kib")):
        if rpn > 1:
            assert two < one
    # Non-divisors of nprocs are skipped, not half-run.
    r = fig16_intranode.run(nprocs=16, per_rank_kib=192, rpns=(2, 3))
    assert r.column("ranks_per_node") == [2, 2]


def test_render_outputs_are_text():
    r = table1_incite.run()
    text = r.render()
    assert "Paper expectation" in text
    assert r.column("Project")[0].startswith("FLASH")
