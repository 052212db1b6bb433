"""Show that no output check of the benchmark is vacuous.

    python3 bench/selftest.py

Runs one small operation of each kind through the CLI and requires its
real output to pass the benchmark's checks.  Then it changes one digit or
one flag of a copy of that output at a time and requires the checks to
reject every copy.  Exits 1 if a real output is rejected or a perturbed
one accepted.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import time

import run

SEED = 1


def bump(text, nth=3):
    """Change the nth digit of a number written as text."""
    digits = [m.start() for m in re.finditer(r"\d", text)]
    i = digits[min(nth, len(digits)) - 1]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def edit(path, change):
    """A function that applies ``change`` to the JSON value at ``path``."""
    def apply(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
        return doc
    return apply


def both(first, second):
    return lambda doc: second(first(doc))


def loginv_cases(res, oracle):
    N = int(run.checks.arg_value(res.op.argv, "--N"))
    s = next(k for k in oracle if 0 < k < N)
    cases = [
        ("idem[0] digit", edit(["idem", 0, "re"], bump)),
        (f"idem[{N}] digit", edit(["idem", N, "re"], bump)),
        (f"idem[{s}] digit", edit(["idem", s, "re"], bump)),
        (f"alpha[{s}] digit", edit(["alpha", s - 1, "im"], bump)),
        ("routes_agree flag", edit(["routes_agree"], lambda v: False)),
        ("gamma route delta", edit(["gamma_route_deltas", "1"], lambda v: "1.0e-12")),
        ("route_tolerance", edit(["route_tolerance"], lambda v: "1.0e-5")),
    ]
    if "--framing" not in res.op.argv:
        cases += [
            ("beta[1] nonzero", edit(["beta", 0, "re"], lambda v: "1.0e-20")),
            ("b_minus[1] digit", edit(["b_minus", 0, "re"], bump)),
        ]
    return cases


def jones_cases(res, oracle):
    return [
        ("V_3 coefficient", edit(["values", "3", "terms", 0, 1], bump)),
        ("V_4 exponent", edit(["values", "4", "terms", 1, 0], lambda e: str(int(e) + 2))),
        ("V_2 fraction", edit(["values", "2", "terms", 0, 1], lambda c: c + "/2")),
    ]


def scan_cases(res, oracle):
    N = int(run.checks.arg_value(res.op.argv, "--N"))
    gamma_rows, vol_rows = oracle
    g = next(iter(gamma_rows))
    v = next(iter(vol_rows))
    free = next(s for s in range(1, N) if s not in gamma_rows and N - s not in gamma_rows and 2 * s != N)
    return [
        (f"log_gamma_scaled({g}) and ({N - g}) digit",
         both(edit(["rows", g - 1, "log_gamma_scaled"], lambda t: bump(t, 12)),
              edit(["rows", N - g - 1, "log_gamma_scaled"], lambda t: bump(t, 12)))),
        (f"log_gamma_scaled({free}) digit", edit(["rows", free - 1, "log_gamma_scaled"], lambda t: bump(t, 12))),
        ("s = N/2 zero flag", edit(["rows", N // 2 - 1, "log_gamma_scaled"], lambda t: "0.5")),
        (f"vol_reference({v}) digit", edit(["rows", v - 1, "vol_reference"], lambda t: bump(t, 12))),
        ("alpha digit", edit(["rows", 3, "alpha"], lambda t: bump(t, 10))),
        ("region label", edit(["rows", 0, "region_label"], lambda t: "conjectural-flat")),
    ]


def qgroup_cases(res, oracle):
    def drop(rows):
        return [r for i, r in enumerate(rows) if i != 0]
    return [
        ("pass flag", edit([5, "pass"], lambda v: False)),
        ("residual digit", edit([7, "residual"], lambda t: "1.0e-20")),
        ("missing row", drop),
    ]


CASES = [
    (run.Op(("loginv", "--knot", "4_1", "--N", "5"), "4_1"), loginv_cases),
    (run.Op(("loginv", "--knot", "3_1", "--N", "4", "--framing", "-1"), "3_1"), loginv_cases),
    (run.Op(("jones", "--braid", "2: 1 1 1 1 1", "--max-m", "4"), "T(2,5)"), jones_cases),
    (run.Op(("volume-scan", "--N", "24")), scan_cases),
    (run.Op(("qgroup-verify", "--N", "2")), qgroup_cases),
]


def main():
    if not (run.SRC / "logjones" / "cli.py").is_file():
        print(f"selftest: {run.SRC / 'logjones' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 600
    bad = 0
    for op, cases in CASES:
        res = run.run_op(op, deadline)
        oracles = {}
        problems = run.check_output(res, SEED, oracles) if res.rc == 0 else [f"exit {res.rc}"]
        print(f"{' '.join(op.argv)}: real output {'passes' if not problems else 'REJECTED'}")
        for p in problems:
            print(f"    {p}")
        bad += bool(problems)
        for label, change in cases(res, oracles.get(op)):
            copy = dataclasses.replace(res, stdout=json.dumps(change(json.loads(res.stdout))))
            found = run.check_output(copy, SEED, oracles)
            bad += not found
            print(f"  {label:40s} {'rejected: ' + found[0] if found else 'ACCEPTED'}")
    print("all checks reject their perturbations" if not bad else f"{bad} check(s) failed the self-test")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
