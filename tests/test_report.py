"""Run report derivation and rendering."""

from conftest import kernels_buildable

from tinprov import (
    BudgetSpec,
    NoProvEngine,
    Policy,
    ProportionalSparseEngine,
    ReceiptEngine,
    build_engine,
    build_report,
    synth_stream,
)
from tinprov.report import RunReport


def test_render_basic_lines():
    text = RunReport(interactions=6, wall_time_s=0.25, peak_entries=4).render()
    lines = text.splitlines()
    assert lines[0] == "interactions: 6"
    assert lines[1] == "wall_time_s: 0.250000"
    assert lines[2] == "peak_entries: 4"
    assert lines[3] == "dropped_dust: 0"
    assert lines[4] == "backend: python"
    assert lines[-1] == "alerts: 0"
    assert not any(line.startswith(("shrink", "promoted_rows")) for line in lines)


def test_render_optional_lines():
    text = RunReport(
        interactions=1,
        wall_time_s=0.0,
        peak_entries=1,
        shrink_avg=1.5,
        shrink_pct=50.0,
        avg_path_length=2.25,
        promoted_rows=7,
        alerts=3,
    ).render()
    assert "shrink_avg: 1.5" in text
    assert "shrink_pct: 50" in text
    assert "avg_path_length: 2.25" in text
    assert "promoted_rows: 7" in text
    assert text.splitlines()[-1] == "alerts: 3"


def test_build_report_element_engine(example_stream):
    engine = ReceiptEngine(3, lifo=True, track_paths=True)
    engine.run(example_stream)
    report = build_report(engine, wall_time_s=0.1, alerts=2)
    assert report.interactions == 6
    assert report.peak_entries == engine.peak_entries
    assert report.alerts == 2
    assert report.shrink_avg is None and report.shrink_pct is None
    assert report.avg_path_length == engine.average_path_length()
    assert report.promoted_rows is None
    # routes replay in the kernels too, where they can be built
    assert report.backend == ("compiled" if kernels_buildable() else "python")


def test_build_report_names_backend(example_stream, compiled):
    compiled_run = build_report(ReceiptEngine(3).run(example_stream), wall_time_s=0.0)
    assert compiled_run.backend == "compiled"
    assert "backend: compiled" in compiled_run.render().splitlines()
    stepped = ReceiptEngine(3)
    for r in example_stream:
        stepped.process(r)
    assert build_report(stepped, wall_time_s=0.0).backend == "python"
    for engine in (NoProvEngine(3), ProportionalSparseEngine(3)):
        assert build_report(engine.run(example_stream), wall_time_s=0.0).backend == "python"


def test_build_report_budget_engine():
    stream = synth_stream(40, 4000, seed=9, shape="hub")
    engine = ProportionalSparseEngine(40, budget=BudgetSpec(4))
    engine.run(stream)
    report = build_report(engine, wall_time_s=1.0)
    assert report.dropped_dust == sum(engine.dropped)
    assert report.shrink_avg is not None and report.shrink_avg > 0
    assert 0 < report.shrink_pct <= 100
    assert report.avg_path_length is None


def test_build_report_sparse_without_budget(example_stream):
    engine = ProportionalSparseEngine(3)
    engine.run(example_stream)
    report = build_report(engine, wall_time_s=0.0)
    assert report.shrink_avg is None
    assert report.dropped_dust == 0.0
    assert report.promoted_rows == 0
    assert "promoted_rows: 0" in report.render()


def test_prop_dense_report_counts_held_entries(example_stream):
    dense = build_engine(Policy.PROP_DENSE, 3).run(example_stream)
    sparse = ProportionalSparseEngine(3).run(example_stream)
    report = build_report(dense, wall_time_s=0.0)
    # the entries held at the peak, as prop-sparse counts them, not 3 × 3 slots
    assert report.peak_entries == sparse.peak_entries < 9
    assert report.promoted_rows == dense.promoted_rows > 0
