"""Report CLI: rendering, diffs, invariant checks, exit codes."""

import json

import pytest

from repro.obs import metrics
from repro.obs.manifest import build_manifest, manifest_json
from repro.obs.report import check_invariants, main, render_diff


def _write(tmp_path, name, mutate=None):
    reg = metrics.MetricsRegistry()
    reg.count("mpi.messages", 10)
    reg.count("mpi.wire_bytes", 4096)
    reg.count("io.shuffle_bytes", 1024)
    reg.count("io.shuffle_bytes_measured", 1024)
    manifest = build_manifest(name, config={"quick": True}, registry=reg)
    if mutate is not None:
        mutate(manifest)
    path = tmp_path / name / "manifest.json"
    path.parent.mkdir()
    path.write_text(manifest_json(manifest))
    return path


def test_clean_manifest_passes(tmp_path, capsys):
    path = _write(tmp_path, "a")
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "## Run `a`" in out
    assert "Bytes by layer" in out
    assert "all invariants hold" in out


def test_shuffle_drift_is_a_violation(tmp_path, capsys):
    def drift(manifest):
        manifest["metrics"]["counters"]["io.shuffle_bytes_measured"] = 999
    path = _write(tmp_path, "a", mutate=drift)
    assert main([str(path), "--no-render"]) == 1
    err = capsys.readouterr().err
    assert "INVARIANT VIOLATION" in err
    assert "shuffle wire accounting drifted" in err


def test_more_processes_than_events_is_a_violation():
    reg = metrics.MetricsRegistry()
    reg.count("sim.events", 10)
    reg.count("sim.processes", 10)
    assert check_invariants(build_manifest("x", registry=reg)) == []
    reg.count("sim.processes", 1)
    violations = check_invariants(build_manifest("x", registry=reg))
    assert any("sim.processes=11 exceeds sim.events=10" in v
               for v in violations)


def test_undetected_corruption_is_a_violation():
    reg = metrics.MetricsRegistry()
    reg.count("integrity.blocks_verified", 4)
    reg.count("faults.inject:ost-corrupt", 3)
    reg.count("faults.detect:ost-corrupt", 1)
    reg.count("faults.recover:retry", 1)
    violations = check_invariants(build_manifest("x", registry=reg))
    assert any("corruption slipped through" in v for v in violations)


def test_detection_without_recovery_is_a_violation():
    reg = metrics.MetricsRegistry()
    reg.count("integrity.blocks_verified", 4)
    reg.count("faults.inject:msg-corrupt", 1)
    reg.count("faults.detect:msg-corrupt", 1)
    violations = check_invariants(build_manifest("x", registry=reg))
    assert any("repair was skipped" in v for v in violations)


def test_tampered_ledger_is_a_violation(tmp_path):
    def tamper(manifest):
        manifest["ledger"] = {"injected": 9, "detected": 9, "recovered": 9}
    path = _write(tmp_path, "a", mutate=tamper)
    assert main([str(path), "--no-render"]) == 1


def test_two_manifests_render_a_diff(tmp_path, capsys):
    a = _write(tmp_path, "a")

    def bump(manifest):
        manifest["metrics"]["counters"]["mpi.messages"] = 12
    b = _write(tmp_path, "b", mutate=bump)
    assert main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "## Diff `a` -> `b`" in out
    assert "| mpi.messages | 10 | 12 | 2 |" in out
    # Only changed metrics appear in the diff.
    assert "mpi.wire_bytes" not in out.split("## Diff")[1]


def test_identical_manifests_diff_to_nothing():
    reg = metrics.MetricsRegistry()
    reg.count("c", 1)
    a = build_manifest("a", registry=reg)
    b = build_manifest("b", registry=reg)
    assert "No metric differences." in render_diff(a, b)


def test_load_error_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main([str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 999}))
    assert main([str(bad)]) == 2
    assert "repro.report:" in capsys.readouterr().err


def test_module_entry_point():
    import repro.report

    with pytest.raises(SystemExit):
        repro.report.main(["--help"])
