"""The benchmark's workloads: each is a list of jobs that run in order in one
fresh interpreter and share its caches, as a library session does.

Jobs call the program through module attributes (``cli.main``,
``ehrhart.interpolate``, ...) at call time, so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from math import gcd
from typing import Callable

from corelat import affine, cli, ehrhart, rootsys

import checks


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    #: check(output, rng) raises checks.CheckError or checks.JobFailed
    check: Callable[[object, object], None]


def cli_run(*argv: str):
    """``corelat.cli.main`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


#: rows of the cores document whose partitions get a hook-length scan
HOOK_SAMPLE = 200


def cores_job(a: int, b: int) -> Job:
    return Job(
        f"cores A{a - 1} {b}",
        lambda: cli_run("cores", f"A{a - 1}", str(b)),
        lambda out, rng: checks.check_cores_doc(checks.cli_document(out), a, b, rng, HOOK_SAMPLE),
    )


def fit_job(name: str, residue: int) -> Job:
    def check(coeffs, rng):
        checks.check_fit_closed_form(name, residue, coeffs)
        p = checks.period(name)
        small = [b for b in range(2, 30) if b % p == residue]
        checks.check_fit_brute_force(name, {residue: coeffs}, [rng.choice(small)])

    return Job(f"interpolate {name} {residue}",
               lambda: ehrhart.interpolate(rootsys.build_named(name), residue),
               check)


def verify_job(suite: str) -> Job:
    return Job(f"verify {suite}", lambda: cli_run("verify", suite),
               lambda out, rng: checks.check_verify_doc(checks.cli_document(out), suite))


def roots_job(name: str) -> Job:
    return Job(f"roots {name}", lambda: cli_run("roots", name),
               lambda out, rng: checks.check_roots_doc(checks.cli_document(out), name))


def w_b_job(name: str, b: int) -> Job:
    return Job(f"w_b {name} {b}",
               lambda: affine.compute_w_b(rootsys.build_named(name), b),
               lambda el, rng: checks.check_w_b(name, b, el.m, el.v))


def _coprime_residues(name: str) -> list[int]:
    t = checks.EXCEPTIONAL[name]
    return [r for r in range(checks.period(name)) if gcd(r, t["h"]) == 1]


#: the suites of ``corelat verify`` that run at their defaults
VERIFY_SUITES = ("main", "max", "transfer", "haiman", "sizer", "welldef", "models", "ip_content")

WORKLOADS: dict[str, list[Job]] = {
    "cores-large": [cores_job(5, 41)],
    "quasipolynomial-fit": [fit_job(name, r) for name in ("G2", "F4")
                            for r in _coprime_residues(name)],
    "verify-suites": [verify_job(s) for s in VERIFY_SUITES],
    "structure": [roots_job(t) for t in ("A40", "B30", "C30", "D30")]
                 + [w_b_job(t, b) for t, b in (("E8", 31), ("E8", 61), ("E7", 55), ("A2", 4001))],
}
