"""The session caches: each region and each word walk is made once per
process, a cached value is refused under a cap exactly as a fresh one, and
cached arrays are read-only.  The fixture in ``conftest.py`` empties the
caches named in ``CLEARED_CACHES`` before each test."""

import importlib
import pkgutil
import sys
import threading
from collections import Counter
from itertools import islice

import numpy as np
import pytest

import corelat
from conftest import CLEARED_CACHES
from corelat import affine, sommers, verify
from corelat.rootsys import build_named
from corelat.sommers import FeasibilityError, capped, enumerate_cores, haiman_count

#: every process-wide cache of the package -> whether the fixture empties it
#: before each test; a new cache needs an edit here, and a choice
SESSION_CACHES = {
    "corelat.rootsys.build": False,
    "corelat.affine.compute_w_b": False,
    "corelat.affine._letter_elements": False,
    "corelat.affine._reflections": False,
    "corelat.affine._size_vector_form": False,
    "corelat.affine._step_data": False,
    "corelat.affine.scaled_size_b": False,
    "corelat.ehrhart.weighted_enumerator": False,
    "corelat.cli.build_parser": False,
    "corelat.sommers._region": True,
    "corelat.verify._WALKS": True,
}


def package_caches() -> set[str]:
    """The name of each distinct object with a ``cache_clear`` that a
    ``corelat`` module holds, by its defining module and qualified name,
    and the word walk store."""
    found = set()
    for info in pkgutil.iter_modules(corelat.__path__):
        for value in vars(importlib.import_module(f"corelat.{info.name}")).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "__wrapped__"):
                found.add(f"{value.__module__}.{value.__qualname__}")
    assert isinstance(verify._WALKS, dict)
    return found | {"corelat.verify._WALKS"}


def test_every_session_cache_is_pinned_and_the_fixture_clears_the_new_ones():
    assert package_caches() == set(SESSION_CACHES)
    assert set(CLEARED_CACHES) == {name for name, cleared in SESSION_CACHES.items() if cleared}


def counted(monkeypatch, module, name) -> Counter:
    """Count the calls of ``module.name`` by the Cartan type of their first argument."""
    calls, real = Counter(), getattr(module, name)
    monkeypatch.setattr(module, name, lambda rs, *args: calls.update([str(rs.cartan_type)]) or real(rs, *args))
    return calls


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

def test_main_max_and_transfer_enumerate_each_region_once(monkeypatch):
    """Three suites over the same 27 (type, b) run each region's two routes
    once: 27 facet walks, not 81."""
    scans = []
    scan = sommers._direct_scan
    monkeypatch.setattr(sommers, "_direct_scan", lambda sr: scans.append((str(sr.rs.cartan_type), sr.b)) or scan(sr))
    for check in (verify.check_main, verify.check_max, verify.check_transfer):
        assert check() == []
    cases = [(t, b) for t, bs in verify.DEFAULT_MATRIX for b in bs]
    assert len(cases) == 27 and scans == cases
    assert sommers._region.cache_info().misses == 27


@pytest.mark.parametrize("name, b", [("A4", 11), ("D4", 7)])
def test_a_cached_region_is_refused_as_a_fresh_one(name, b):
    rs = build_named(name)
    count = haiman_count(rs, b)
    with capped(count):
        coreset = enumerate_cores(rs, b)
    with capped(count - 1), pytest.raises(
            FeasibilityError, match=f"^predicted count {count} for {name}, b={b} exceeds cap {count - 1}$"):
        enumerate_cores(rs, b)
    with capped(count):
        assert enumerate_cores(rs, b) is coreset


def test_a_cached_region_is_read_only():
    coreset = enumerate_cores(build_named("C3"), 7)
    for array in (coreset.point_rows, coreset.numerators):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert enumerate_cores(build_named("C3"), 7).document()["count"] == len(coreset)


def test_a_cached_region_holds_no_texts():
    """The size texts are made per document, not kept on the region."""
    coreset = enumerate_cores(build_named("A2"), 5)
    coreset.document()
    list(coreset.rows())
    assert vars(coreset).keys() == {"rs", "b", "point_rows", "denominator", "numerators"}


# ---------------------------------------------------------------------------
# Word walks
# ---------------------------------------------------------------------------

def test_sizer_then_welldef_advance_each_walk_once(monkeypatch):
    """Run alone, each suite takes its own number of ``reduced_steps`` per
    type; one after the other, they take the larger of the two."""
    calls = counted(monkeypatch, affine, "reduced_steps")
    alone = []
    for check in (verify.check_sizer, verify.check_welldef):
        verify._WALKS.clear()
        calls.clear()
        assert check() == []
        alone.append(dict(calls))
    verify._WALKS.clear()
    calls.clear()
    assert verify.check_sizer() == [] and verify.check_welldef() == []
    sizer, welldef = alone
    assert sizer.keys() == welldef.keys() == set(dict(verify.DEFAULT_MATRIX))
    assert dict(calls) == {t: max(sizer[t], welldef[t]) for t in sizer}


@pytest.mark.parametrize("name, cap", [("A1", 16), ("B3", 60), ("G2", 1)])
def test_a_capped_reader_refuses_at_the_same_level_from_kept_levels(monkeypatch, name, cap):
    rs = build_named(name)

    def refusal():
        with capped(cap), pytest.raises(FeasibilityError) as info:
            for _ in verify._word_walk(rs):
                pass
        return str(info.value)
    fresh = refusal()
    deeper = sum(1 for _ in islice(verify._word_walk(rs), 12))
    calls = counted(monkeypatch, affine, "reduced_steps")
    assert deeper == 12 and refusal() == fresh and not calls


def test_threads_that_read_one_walk_share_its_levels(monkeypatch):
    """Four threads that read one type's walk at once, switching every
    microsecond, get the same levels, each made once, as read-only arrays."""
    rs, depth, readers = build_named("B3"), 9, 4
    calls = counted(monkeypatch, affine, "reduced_steps")
    start, seen = threading.Barrier(readers), [None] * readers

    def read(k):
        start.wait(timeout=10)
        seen[k] = list(islice(verify._word_walk(rs), depth))
    threads = [threading.Thread(target=read, args=(k,)) for k in range(readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert calls == Counter({"B3": depth - 1})
    first = seen[0]
    assert len(first) == depth and all(levels is not None and len(levels) == depth for levels in seen)
    assert all(a is b for levels in seen for a, b in zip(levels, first))
    assert not any(x.flags.writeable for level in first for x in level)
    with pytest.raises(ValueError, match="read-only"):
        first[3].vec[0, 0] += 1


def test_a_level_that_fails_to_be_made_changes_nothing(monkeypatch):
    """A level that raises while it is made leaves the walk as it was; the
    next reader makes it and gets the levels of a walk that never failed."""
    rs = build_named("A2")
    expected = [level.vec for level in islice(verify._word_walk(rs), 5)]
    verify._WALKS.clear()
    kept = list(islice(verify._word_walk(rs), 3))
    steps = affine.reduced_steps

    def fail_once(*args):
        monkeypatch.setattr(affine, "reduced_steps", steps)
        raise RuntimeError("made to fail")
    monkeypatch.setattr(affine, "reduced_steps", fail_once)
    with pytest.raises(RuntimeError, match="made to fail"):
        list(islice(verify._word_walk(rs), 5))
    levels = verify._WALKS[rs][0]
    assert len(levels) == 3 and all(a is b for a, b in zip(levels, kept))
    got = [level.vec for level in islice(verify._word_walk(rs), 5)]
    assert len(got) == 5 and all(np.array_equal(x, y) for x, y in zip(got, expected))
