"""Self-test of the benchmark's correctness checks.

Each check must accept a real output of the program and reject a copy
perturbed in the way it guards against (a dropped row, a changed size, a
shifted coefficient, ...).  The outputs come from the workloads' own job
functions at small parameters, so this runs in a few seconds:

    python3 perfbench/selftest.py

Exit code 0 when every check behaves, 1 otherwise.
"""

import copy
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402

failures = []


def accept(label, fn):
    try:
        fn()
    except (checks.CheckError, checks.JobFailed) as exc:
        failures.append(f"{label}: a valid output was rejected: {exc}")
        print(f"FAIL {label}: rejected a valid output: {exc}")
    else:
        print(f"ok   {label}: valid output accepted")


def reject(label, fn, fragment, kind=checks.CheckError):
    try:
        fn()
    except (checks.CheckError, checks.JobFailed) as exc:
        if isinstance(exc, kind) and fragment in str(exc):
            print(f"ok   {label}: rejected ({exc})")
            return
        failures.append(f"{label}: rejected by the wrong check: {exc!r}")
        print(f"FAIL {label}: rejected by the wrong check: {exc!r}")
        return
    failures.append(f"{label}: perturbed output was accepted")
    print(f"FAIL {label}: perturbed output was accepted")


def cli_output(doc, rc=0):
    return rc, json.dumps(doc)


def cores_cases():
    a, b = 4, 5
    job = workloads.cores_job(a, b)
    rc, text = job.run()
    doc = json.loads(text)
    rng = random.Random(0)

    def check(d, rc=0):
        return lambda: checks.check_cores_doc(checks.cli_document(cli_output(d, rc)), a, b, rng, 10**6)

    accept("cores: (4, 5)-cores", check(doc))
    d = copy.deepcopy(doc)
    d["rows"].pop()
    reject("cores: dropped row", check(d), "count")
    d = copy.deepcopy(doc)
    d["rows"][1] = copy.deepcopy(d["rows"][0])
    reject("cores: repeated row", check(d), "distinct")
    d = copy.deepcopy(doc)
    row = max(d["rows"], key=lambda r: Fraction(r["size"]))
    row["size"] = str(Fraction(row["size"]) - 1)
    reject("cores: changed size", check(d), "size")
    d = copy.deepcopy(doc)
    row = next(r for r in d["rows"] if sum(r["partition"]) >= a)
    row["partition"] = [sum(row["partition"])]  # one row: has a hook of length a
    reject("cores: partition that is not a core", check(d), "hook scan")
    d = copy.deepcopy(doc)
    d["mean"] = str(Fraction(d["mean"]) + 1)
    reject("cores: wrong mean in the document", check(d), "mean")
    d = copy.deepcopy(doc)
    d["max"] = str(Fraction(d["max"]) + 1)
    reject("cores: wrong max in the document", check(d), "max")
    d = copy.deepcopy(doc)
    d["direct_checked"] = False
    reject("cores: box-scan cross-check skipped", check(d), "direct_checked", checks.JobFailed)
    reject("cores: usage error", check(doc, rc=2), "usage error", checks.JobFailed)


def fit_cases():
    fits = {r: workloads.fit_job("G2", r).run() for r in (1, 5)}
    small = [b for b in range(2, 30) if b % 6 in fits]
    accept("fit: G2 components against the closed form",
           lambda: [checks.check_fit_closed_form("G2", r, c) for r, c in fits.items()])
    accept("fit: G2 components against brute force",
           lambda: checks.check_fit_brute_force("G2", fits, small))
    shifted = {r: c[:1] + (c[1] + Fraction(1, 1000),) + c[2:] for r, c in fits.items()}
    reject("fit: shifted coefficient", lambda: checks.check_fit_closed_form("G2", 1, shifted[1]),
           "closed form")
    reject("fit: shifted coefficient against brute force",
           lambda: checks.check_fit_brute_force("G2", shifted, small), "brute force")
    reject("fit: extra degree", lambda: checks.check_fit_closed_form("G2", 5, fits[5] + (1,)),
           "degree")


def verify_cases():
    rc, text = workloads.verify_job("haiman").run()
    doc = json.loads(text)

    def check(d, rc=0):
        return lambda: checks.check_verify_doc(checks.cli_document(cli_output(d, rc)), "haiman")

    accept("verify: haiman report", check(doc))
    reject("verify: pass false", check(dict(doc, **{"pass": False})), "pass is not true")
    reject("verify: counterexample", check(dict(doc, counterexamples=[{"b": 5}])), "counterexamples")
    reject("verify: exit code 1", check(doc, rc=1), "exit code 1")


def structure_cases():
    for name in ("A5", "B4", "C4", "D5"):
        rc, text = workloads.roots_job(name).run()
        doc = json.loads(text)
        accept(f"roots: {name}", lambda: checks.check_roots_doc(doc, name))
    perturbations = (
        ("dropped root", lambda d: d["positive_roots"].pop(), "positive roots"),
        ("wrong exponents", lambda d: d["exponents"].__setitem__(0, 2), "exponents"),
        ("wrong |W|", lambda d: d.__setitem__("weyl_order", d["weyl_order"] * 2), "|W|"),
        ("wrong index of connection",
         lambda d: d.__setitem__("index_of_connection", 3), "index of connection"),
    )
    for label, change, fragment in perturbations:
        d = copy.deepcopy(doc)
        change(d)
        reject(f"roots: D5 {label}", lambda: checks.check_roots_doc(d, "D5"), fragment)
    for name, b in (("A2", 4), ("A3", 5), ("E6", 5)):
        el = workloads.w_b_job(name, b).run()
        accept(f"w_b: {name} b={b}", lambda: checks.check_w_b(name, b, el.m, el.v))
        v = (el.v[0] + 1,) + el.v[1:]
        reject(f"w_b: {name} b={b} shifted translation",
               lambda: checks.check_w_b(name, b, el.m, v), "w_b")
        m = ((el.m[0][0] + 1,) + el.m[0][1:],) + el.m[1:]
        reject(f"w_b: {name} b={b} changed matrix entry",
               lambda: checks.check_w_b(name, b, m, el.v), "w_b")


def main() -> int:
    for cases in (cores_cases, fit_cases, verify_cases, structure_cases):
        cases()
    if failures:
        print(f"{len(failures)} self-test failures", file=sys.stderr)
        return 1
    print("every check accepts valid outputs and rejects perturbed ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
