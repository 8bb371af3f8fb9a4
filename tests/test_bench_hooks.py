"""The benchmark's tracer (perfbench/tracing.py) wraps package functions
by name.  These tests install it as the benchmark does, so a refactor that
renames or drops a wrapped function fails here rather than in a traced
benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

# the tracer patches these modules through sys.modules, so all must be loaded
from corelat import affine, cli, cores, ehrhart, rootsys, sommers, verify  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_of_enumerate_cores():
    tracing = load_tracing()
    rs = rootsys.build_named("A2")
    wrapped = ("iter_alcove_m", "_direct_scan", "enumerate_alcove", "enumerate_cores")
    originals = {name: getattr(sommers, name) for name in wrapped}
    before = tracing.cache_counts()
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        cs = sommers.enumerate_cores(rs, 5)
        visited_by_cores = tracer.counts["sommers.alcove_m_visited"]
        ehrhart.weighted_enumerator(rs, 4)
    finally:
        tracer.uninstall()
    assert {name: getattr(sommers, name) for name in wrapped} == originals
    assert len(cs) == 7

    spans = {}
    for sid, name, _, _, parent in tracer.spans:
        spans.setdefault(name, []).append((sid, parent))
    (top, _), = spans["sommers.enumerate_cores"]
    # enumerate_cores maps the alcove's int64 rows, not the tuple view the tracer wraps
    assert "sommers.enumerate_alcove" not in spans
    assert [parent for _, parent in spans["sommers.direct_scan"]] == [top]
    assert len(spans.get("affine.size_lattice_total", [])) == 0
    assert spans["affine.compute_w_b"]
    assert len(spans["ehrhart.weighted_enumerator"]) == 1
    assert [kept for _, kept in tracer.scans] == [7]
    assert tracer.enumerator_keys == {(rs.cartan_type, 4)}

    # the alcove walks read int64 blocks, not the tuple view the tracer wraps
    assert visited_by_cores == 0
    after = tracing.cache_counts()
    delta = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
    metrics = tracer.metrics(delta)
    assert metrics["sommers.alcove_m_visited"] == 0
    assert metrics["sommers.coroot_hit_ratio"] == 0.0
    assert metrics["sommers.enumerate_alcove_s"] == 0
    assert metrics["sommers.direct_scan_skipped"] == 0
    assert metrics["sommers.box_volume"] == tracing.box_volume(sommers.sommers_region(rs, 5))
    assert 0 < metrics["sommers.box_keep_ratio"] <= 1
    assert metrics["affine.size_calls"] == 0
    assert metrics["ehrhart.enumerator_fresh"] == 1


def test_tracer_sees_every_layer_of_the_cores_command(capsys):
    """The per-layer cores-large metrics time the same calls through the CLI."""
    tracing = load_tracing()
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        code = cli.main(["cores", "A2", "5"])
    finally:
        tracer.uninstall()
    assert code == 0 and json.loads(capsys.readouterr().out)["count"] == 7
    assert tracer.counts["sommers.alcove_m_visited"] == 0

    parent = {sid: p for sid, _, _, _, p in tracer.spans}
    spans = {}
    for sid, name, _, _, _ in tracer.spans:
        spans.setdefault(name, []).append(sid)
    assert len(spans.get("affine.size_lattice_total", [])) == 0
    assert "cores.from_coroot" not in spans
    (main,), (top,) = spans["cli.main"], spans["sommers.enumerate_cores"]
    assert parent[main] == -1 and parent[top] == main
    assert "sommers.enumerate_alcove" not in spans
    assert [parent[sid] for sid in spans["sommers.direct_scan"]] == [top]


def test_a_refusal_passes_through_the_tracer():
    tracing = load_tracing()
    rs = rootsys.build_named("A2")
    holders = [m for n, m in sys.modules.items() if n.split(".")[0] == "corelat"]
    wrapped = {(holder, name): value for holder in holders + [affine.AffineElement]
               for name, value in vars(holder).items() if callable(value)}
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert sommers.iter_alcove_m is not wrapped[sommers, "iter_alcove_m"]
        # gcd(3, h) = 3, so the walk itself refuses
        with sommers.capped(3), pytest.raises(sommers.FeasibilityError, match="= 9"):
            ehrhart.weighted_enumerator(rs, 3)
        visited_at_b3 = tracer.counts["sommers.alcove_m_visited"]
        # b = 5 is coprime to h: refused on the predicted count, before the walk
        with sommers.capped(6), pytest.raises(sommers.FeasibilityError, match="predicted count 7"):
            ehrhart.weighted_enumerator(rs, 5)
    finally:
        tracer.uninstall()
    # the enumerator walks int64 blocks, so the tuple-view wrapper yields none
    assert visited_at_b3 == 0
    assert tracer.counts["sommers.alcove_m_visited"] == visited_at_b3
    assert tracer.enumerator_keys == {(rs.cartan_type, 3), (rs.cartan_type, 5)}
    assert {(holder, name): vars(holder)[name] for holder, name in wrapped} == wrapped


def test_tracer_counts_a_direct_read_of_the_tuple_view():
    tracing = load_tracing()
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        list(sommers.iter_alcove_m(rootsys.build_named("A2"), 5))
    finally:
        tracer.uninstall()
    # m1 + m2 <= 5 has 21 solutions
    assert tracer.counts["sommers.alcove_m_visited"] == 21


@pytest.mark.parametrize("argv, suite", [
    (["verify", "sizer", "--type", "A2", "--count", "5"], "verify.sizer_s"),
    (["verify", "welldef", "--type", "A2", "--length", "3"], "verify.welldef_s"),
    (["verify", "ip_content"], "verify.ip_content_s"),
])
def test_tracer_times_the_word_side_suites(capsys, argv, suite):
    tracing = load_tracing()
    originals = (affine.AffineElement.compose, affine.size_i_lattice, affine.inversion_sequence,
                 cores.toggle_action)
    before = tracing.cache_counts()
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0 and json.loads(capsys.readouterr().out)["pass"] is True
    after = tracing.cache_counts()
    delta = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
    assert suite in tracer.metrics(delta)
    assert (affine.AffineElement.compose, affine.size_i_lattice,
            affine.inversion_sequence, cores.toggle_action) == originals


@pytest.mark.parametrize("argv, suite", [
    (["verify", "transfer", "--type", "A2", "--type", "G2", "--b", "5"], "verify.transfer_s"),
    (["verify", "haiman", "--type", "B3", "--b", "5"], "verify.haiman_s"),
    (["verify", "models"], "verify.models_s"),
])
def test_tracer_times_the_region_suites(capsys, argv, suite):
    # the suites and enumerate_cores read the alcove's int64 rows and the ragged
    # abacus block, so the tuple views that the tracer wraps never run
    tracing = load_tracing()
    before = tracing.cache_counts()
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0 and json.loads(capsys.readouterr().out)["pass"] is True
    after = tracing.cache_counts()
    delta = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
    metrics = tracer.metrics(delta)
    assert metrics[suite] > 0
    parent = {sid: p for sid, _, _, _, p in tracer.spans}
    spans = {}
    for sid, name, _, _, _ in tracer.spans:
        spans.setdefault(name, []).append(sid)
    assert "sommers.enumerate_alcove" not in spans and metrics["sommers.enumerate_alcove_s"] == 0
    assert "cores.from_coroot" not in spans and metrics["cores.from_coroot_s"] == 0
    assert tracer.counts["sommers.alcove_m_visited"] == 0
