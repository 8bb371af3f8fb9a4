"""Per-layer tracing of ``corelat`` from outside the program.

``Tracer.install`` replaces selected functions of the package's modules
with wrappers, wherever a module holds a reference to them, so calls made
inside the package are seen too.  A timed wrapper records a span
``[id, name, start_ns, end_ns, parent_id]``; a counting wrapper only
increments a counter.  Spans stay in memory until ``write``.  Hot,
tiny functions are counted rather than timed, so that the spans do not
swamp what they measure.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from math import prod

#: (module, function) pairs timed with a span; names drop a leading "_"
SPANS = (
    ("rootsys", "build"),
    ("affine", "compute_w_b"),
    ("affine", "size_lattice_total"),
    ("affine", "inversion_sequence"),
    ("sommers", "enumerate_alcove"),
    ("sommers", "_direct_scan"),
    ("sommers", "enumerate_cores"),
    ("ehrhart", "weighted_enumerator"),
    ("ehrhart", "lagrange_fit"),
    ("ehrhart", "interpolate"),
    ("cores", "from_coroot"),
    ("models", "embed"),
    ("cli", "main"),
)

#: (module, function) pairs whose calls are only counted
COUNTS = (
    ("rootsys", "inner"),
    ("affine", "size_i_lattice"),
    ("cores", "toggle_action"),
)

#: cached functions whose cache_info() is read before and after a round
CACHES = (
    ("rootsys", "build"),
    ("affine", "compute_w_b"),
    ("affine", "_letter_elements"),
)


def _module(short: str):
    return sys.modules[f"corelat.{short}"]


def cache_counts() -> dict:
    """Cumulative (hits, misses) of each cached function in ``CACHES``."""
    out = {}
    for mod, attr in CACHES:
        info = getattr(_module(mod), attr).cache_info()
        out[f"{mod}.{attr.lstrip('_')}"] = (info.hits, info.misses)
    return out


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.enumerator_keys: set = set()
        self.scans: list = []         # (SommersRegion, points kept or None)
        self._stack: list[int] = []
        self._patches: list = []      # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def timed(*args, **kwargs):
            rec = [len(spans), name, clock(), 0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return timed

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _counted_yields(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item
        return counted

    def _alcove_hook(self, fn):
        counts = self.counts

        def observed(rs, b, lattice="coroot", *args, **kwargs):
            before = counts["sommers.alcove_m_visited"]
            points = fn(rs, b, lattice, *args, **kwargs)
            if lattice == "coroot":
                counts["coroot.visited"] += counts["sommers.alcove_m_visited"] - before
                counts["coroot.points"] += len(points)
            return points
        return observed

    def _enumerator_hook(self, fn):
        def observed(rs, b, *args, **kwargs):
            self.enumerator_keys.add((rs.cartan_type, b))
            return fn(rs, b, *args, **kwargs)
        return observed

    def _scan_hook(self, fn):
        def observed(sr, *args, **kwargs):
            found = fn(sr, *args, **kwargs)
            self.scans.append((sr, None if found is None else len(found)))
            return found
        return observed

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        """Wrap ``owner.attr`` and every other reference the package holds to it."""
        original = getattr(owner, attr)
        wrapper = make(original)
        holders = [m for n, m in sys.modules.items() if n == "corelat" or n.startswith("corelat.")]
        for holder in dict.fromkeys(holders + [owner]):
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._patches.append((holder, key, original))

    def install(self) -> None:
        hooks = {("sommers", "enumerate_alcove"): self._alcove_hook,
                 ("ehrhart", "weighted_enumerator"): self._enumerator_hook,
                 ("sommers", "_direct_scan"): self._scan_hook}
        for mod, attr in SPANS:
            name = f"{mod}.{attr.lstrip('_')}"
            hook = hooks.get((mod, attr), lambda fn: fn)
            self._replace(_module(mod), attr,
                          lambda fn, name=name, hook=hook: hook(self.span(name, fn)))
        verify = _module("verify")
        for attr in [a for a in vars(verify) if a.startswith("check_")]:
            self._replace(verify, attr, lambda fn, name=f"verify.{attr[6:]}": self.span(name, fn))
        for mod, attr in COUNTS:
            self._replace(_module(mod), attr,
                          lambda fn, name=f"{mod}.{attr}": self._counted(name, fn))
        self._replace(_module("affine").AffineElement, "compose",
                      lambda fn: self._counted("affine.compose", fn))
        self._replace(_module("sommers"), "iter_alcove_m",
                      lambda fn: self._counted_yields("sommers.alcove_m_visited", fn))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- report ------------------------------------------------------------

    def times(self) -> dict:
        """name -> (self ns, total ns, calls); self time is a span's duration
        minus the durations of its direct children."""
        child_ns = Counter()
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for sid, name, start, end, _ in self.spans:
            own, total, calls = out.get(name, (0, 0, 0))
            out[name] = (own + end - start - child_ns[sid], total + end - start, calls + 1)
        return out

    def metrics(self, cache_delta: dict) -> dict:
        """Per-layer values, named as in BENCHMARK.json (``trace.overhead_s``
        is added by the caller, which also has the untraced rounds).
        Call after ``uninstall``: the box volumes use the program again."""
        times = self.times()

        def self_s(name):
            return times.get(name, (0, 0, 0))[0] / 1e9

        def total_s(name):
            return times.get(name, (0, 0, 0))[1] / 1e9

        def calls(name):
            return times.get(name, (0, 0, 0))[2]

        c = self.counts
        ran = [(box_volume(sr), kept) for sr, kept in self.scans if kept is not None]
        volume = sum(v for v, _ in ran)
        out = {
            "rootsys.build_s": self_s("rootsys.build"),
            "rootsys.build_calls": sum(cache_delta["rootsys.build"]),
            "rootsys.build_misses": cache_delta["rootsys.build"][1],
            "rootsys.inner_calls": c["rootsys.inner"],
            "affine.size_lattice_total_s": self_s("affine.size_lattice_total"),
            "affine.size_calls": calls("affine.size_lattice_total") + c["affine.size_i_lattice"],
            "affine.compute_w_b_s": self_s("affine.compute_w_b"),
            "affine.compute_w_b_misses": cache_delta["affine.compute_w_b"][1],
            "affine.letter_element_calls": sum(cache_delta["affine.letter_elements"]),
            "affine.compose_calls": c["affine.compose"],
            "affine.inversion_sequence_s": self_s("affine.inversion_sequence"),
            "sommers.enumerate_alcove_s": self_s("sommers.enumerate_alcove"),
            "sommers.alcove_m_visited": c["sommers.alcove_m_visited"],
            "sommers.coroot_hit_ratio": (c["coroot.points"] / c["coroot.visited"]
                                         if c["coroot.visited"] else 0.0),
            "sommers.direct_scan_s": self_s("sommers.direct_scan"),
            "sommers.box_volume": volume,
            "sommers.box_keep_ratio": sum(k for _, k in ran) / volume if volume else 0.0,
            "sommers.enumerate_cores_self_s": self_s("sommers.enumerate_cores"),
            "sommers.direct_scan_skipped": len(self.scans) - len(ran),
            "ehrhart.weighted_enumerator_s": self_s("ehrhart.weighted_enumerator"),
            "ehrhart.enumerator_calls": calls("ehrhart.weighted_enumerator"),
            "ehrhart.enumerator_fresh": len(self.enumerator_keys),
            "ehrhart.lagrange_fit_s": self_s("ehrhart.lagrange_fit"),
            "cores.from_coroot_s": self_s("cores.from_coroot"),
            "cores.toggle_action_calls": c["cores.toggle_action"],
            "models.embed_s": self_s("models.embed"),
            "cli.self_s": self_s("cli.main"),
            "trace.spans": len(self.spans),
        }
        for name in [n for n in times if n.startswith("verify.")]:
            out[f"{name}_s"] = total_s(name)
        return out

    def write(self, path: str) -> None:
        """Append the spans as JSON lines, one per span, tagged with the run id."""
        with open(path, "a") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start_ns": start, "end_ns": end, "parent": parent}) + "\n")


def box_volume(sr) -> int:
    """Candidates in the integer bounding box that the program's direct scan
    covers: the region's vertices widened by one on each side."""
    verts = _module("sommers").region_vertices(sr.rs, sr.b)
    n = sr.rs.rank
    lo = [min(math.floor(v[i]) for v in verts) - 1 for i in range(n)]
    hi = [max(math.ceil(v[i]) for v in verts) + 1 for i in range(n)]
    return prod(h - l + 1 for l, h in zip(lo, hi))
