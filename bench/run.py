"""The logjones benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload's fixed list of CLI operations (``python -m logjones.cli``
subcommands), one operation at a time, each in a fresh interpreter, in
whole passes until ``--seconds`` have gone by.  Every output is checked
against bench/checks.py; the seed only chooses which rows and indices
those oracles sample.  With ``--trace 0`` the last stdout line is the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the run
alternates untraced and traced passes and reports the per-layer metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MARKER = "@@bench "

# A run must end within 180 s: no pass starts once this much time is gone
# or the previous pass would not fit before it.
RUN_BUDGET_S = 150.0
SETUP_PROBES = 5

# Times are reported in seconds at a reference speed.  Other tenants of a
# shared machine slow everything by up to 1.8x for seconds to minutes at a
# time, so child.py samples the machine's speed with a fixed chunk of work
# before, during (every 50 ms) and after each operation, and each measured
# time is multiplied by SAMPLE_REF_S over the mean sample.  SAMPLE_REF_S is
# the chunk's time on an idle 2-vCPU sandbox, so reference seconds are
# close to idle seconds.  See README.md.
SAMPLE_REF_S = 0.00095


@dataclasses.dataclass(frozen=True)
class Op:
    argv: tuple
    knot: str = ""  # what the closure is, for the oracle: 4_1, 3_1 or T(2,b)

    @property
    def kind(self):
        return self.argv[0]

    @property
    def items(self):
        """Output items: interior gamma_s, colors, scan rows (qgroup rows
        are counted from the output)."""
        if self.kind == "loginv":
            return int(checks.arg_value(self.argv, "--N")) - 1
        if self.kind == "jones":
            return int(checks.arg_value(self.argv, "--max-m"))
        if self.kind == "volume-scan":
            return int(checks.arg_value(self.argv, "--N")) - 1
        return 0


def loginv(knot_flag, value, N, framing=0, knot=None):
    argv = ("loginv", knot_flag, value, "--N", str(N))
    if framing:
        argv += ("--framing", str(framing))
    return Op(argv, knot or value)


WORKLOADS = {
    # catalog knots: exact Habiro reconstruction and the three routes, no braid traces
    "catalog-loginv": (
        loginv("--knot", "4_1", 3), loginv("--knot", "4_1", 5), loginv("--knot", "4_1", 7),
        loginv("--knot", "4_1", 8), loginv("--knot", "3_1", 3), loginv("--knot", "3_1", 5),
        loginv("--knot", "4_1", 5, framing=2), loginv("--knot", "3_1", 4, framing=-1),
    ),
    # braid words: colored Jones by braid operators on tensor powers
    "braid-loginv": (
        loginv("--braid", "2: 1 1 1", 3, knot="3_1"),
        loginv("--braid", "3: 1 -2 1 -2", 2, knot="4_1"),
        loginv("--braid", "3: 1 1 1 2", 2, knot="3_1"),
        Op(("jones", "--braid", "2: 1 1 1 1 1", "--max-m", "8"), "T(2,5)"),
    ),
    # pure mpmath numerics: no LaurentPoly, no braid traces
    "fig8-scan": (Op(("volume-scan", "--N", "150")),),
    # R-matrix specialization sweep: eval_at on many small polynomials
    "qgroup-verify": (Op(("qgroup-verify", "--N", "2")), Op(("qgroup-verify", "--N", "3"))),
}

RATES = {  # per-kind rates printed beside the metrics
    "loginv": "gamma_per_s", "jones": "colors_per_s",
    "volume-scan": "scan_rows_per_s", "qgroup-verify": "checks_per_s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure, wrong import)."""


@dataclasses.dataclass
class Result:
    op: Op
    rc: int
    stdout: str
    stderr: str
    setup_s: float = 0.0
    op_s: float = 0.0
    raw_op_s: float = 0.0
    scale: float = 1.0
    rss_mb: float = 0.0
    layers: dict = None
    problems: list = dataclasses.field(default_factory=list)

    @property
    def failed(self):
        return self.rc != 0 or bool(self.problems)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("LOGJONES_PRECISION", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # so that traced counts repeat exactly
    return env


def spawn(mode, argv, deadline):
    """Run bench/child.py; returns (rc, stdout, stderr, report or None, spawn time)."""
    cmd = [sys.executable, str(BENCH / "child.py"), mode, *argv]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err + "\nbenchmark: operation timed out", None, spawned
    lines = err.rstrip("\n").split("\n")
    report = None
    if lines and lines[-1].startswith(MARKER):
        report = json.loads(lines.pop()[len(MARKER):])
        err = "\n".join(lines)
        if not Path(report["module"]).resolve().is_relative_to(SRC):
            raise BenchError(f"imported logjones from {report['module']}, not from {SRC}")
    return proc.returncode, out, err, report, spawned


def run_op(op, deadline, spans_path=None):
    mode = ["trace", str(spans_path)] if spans_path else ["run"]
    rc, out, err, rep, spawned = spawn(mode[0], mode[1:] + list(op.argv), deadline)
    res = Result(op, -1 if rc is None else rc, out, err)
    if rep is not None:
        res.setup_s = setup_time(rep, spawned)
        res.scale = SAMPLE_REF_S / statistics.fmean(rep["speed"])
        res.raw_op_s = rep["done"] - rep["start"] - rep["sampling_s"]
        res.op_s = res.raw_op_s * res.scale
        res.rss_mb = rep["maxrss_kb"] / 1024
        res.layers = rep.get("layers")
    elif res.rc == 0:
        res.rc = -1  # exited without reporting: count as failed
    return res


def run_pass(ops, deadline, spans_dir=None):
    results = []
    for i, op in enumerate(ops):
        results.append(run_op(op, deadline, spans_dir / f"{i}.tsv" if spans_dir else None))
    return results


def probe_setup(deadline):
    rc, _, err, rep, spawned = spawn("probe", [], deadline)
    if rc != 0 or rep is None:
        raise BenchError(f"set-up probe failed (exit {rc}): {err.strip()[-500:]}")
    return setup_time(rep, spawned)


def setup_time(rep, spawned):
    """Start-up time, scaled by the speed samples taken right after it."""
    return (rep["ready"] - spawned) * SAMPLE_REF_S / rep["setup_speed"]


# -- checking ------------------------------------------------------------------


def check_output(res, seed, oracles):
    """The problems of one operation's output; oracle values are computed
    once per operation and kept in ``oracles``."""
    op = res.op
    rng = random.Random(f"{seed}|{' '.join(op.argv)}")
    if op.kind == "loginv":
        if op not in oracles:
            N = int(checks.arg_value(op.argv, "--N"))
            framing = int(checks.arg_value(op.argv, "--framing", 0))
            oracles[op] = checks.loginv_oracle(op.knot, N, framing, checks.loginv_sample(N, rng))
        return checks.check_loginv(op.argv, res.stdout, op.knot, oracles[op])
    if op.kind == "jones":
        return checks.check_jones(op.argv, res.stdout, int(op.knot.split(",")[1].rstrip(")")))
    if op.kind == "volume-scan":
        if op not in oracles:
            N = int(checks.arg_value(op.argv, "--N"))
            oracles[op] = checks.scan_oracle(N, checks.scan_sample(N, rng))
        return checks.check_scan(op.argv, res.stdout, oracles[op])
    if op.kind == "qgroup-verify":
        return checks.check_qgroup(op.argv, res.stdout)
    return [f"no check for {op.kind}"]


def check_results(passes, seed):
    oracles = {}
    for results in passes:
        for res in results:
            if res.rc != 0:
                continue
            try:
                res.problems = check_output(res, seed, oracles)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                res.problems = [f"malformed output: {exc!r}"]


def items_of(res):
    if res.failed:
        return 0
    if res.op.kind == "qgroup-verify":
        return len(json.loads(res.stdout))
    return res.op.items


# -- metrics ---------------------------------------------------------------------


def op_times(passes):
    """Each operation's median time over the run's passes."""
    return [statistics.median(p[i].op_s for p in passes) for i in range(len(passes[0]))]


def end_to_end(passes, setups):
    medians = op_times(passes)
    wall = sum(medians)
    items = sum(items_of(r) for r in passes[0])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in passes),
        "items_per_s": items / wall,
    }


def kind_rates(passes):
    medians = op_times(passes)
    items, secs = {}, {}
    for res, t in zip(passes[0], medians):
        items[res.op.kind] = items.get(res.op.kind, 0) + items_of(res)
        secs[res.op.kind] = secs.get(res.op.kind, 0.0) + t
    return {RATES[k]: items[k] / secs[k] for k in items}


def layer_values(results):
    """Flat per-layer values of one traced pass."""
    spans, counts = {}, {}
    for res in results:
        if res.layers is None:
            continue
        for name, (calls, self_s) in res.layers["spans"].items():
            c, s = spans.get(name, (0, 0.0))
            spans[name] = (c + calls, s + self_s * res.scale)
        for name, v in res.layers["counts"].items():
            counts[name] = max(counts.get(name, 0), v) if name.endswith("max_dim") else counts.get(name, 0) + v
    vals = {}
    for name, (calls, self_s) in spans.items():
        vals[f"{name}.calls"] = calls
        vals[f"{name}.self_s"] = self_s
    vals.update(counts)

    def ratio(num, den):
        return num / den if den else 0.0

    vals["qcalc.kronecker.hit_ratio"] = ratio(counts["qcalc.kronecker.hits"], counts["qcalc.kronecker.calls"])
    for name in ("jones.colored_jones", "habiro.reconstruct_Vm"):
        vals[f"{name}.distinct_ratio"] = ratio(counts[f"{name}.distinct"], spans[name][0])
    vals["cli.main.total_s"] = sum(r.op_s for r in results)
    return vals


def per_layer(traced, untraced, names):
    """Counts from the first traced pass (they repeat exactly), times as
    medians over the traced passes."""
    per_pass = [layer_values(p) for p in traced]
    out = {}
    for name in names:
        if name == "trace.overhead_ratio":
            out[name] = (statistics.median(sum(r.op_s for r in p) for p in traced)
                         / statistics.median(sum(r.op_s for r in p) for p in untraced))
        elif name.endswith("_s"):
            out[name] = statistics.median(v[name] for v in per_pass)
        else:
            out[name] = per_pass[0][name]
    repeat = all(v[n] == per_pass[0][n] for v in per_pass for n in names
                 if not n.endswith("_s") and n != "trace.overhead_ratio")
    return out, repeat


# -- reporting -------------------------------------------------------------------


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment():
    return (f"python {platform.python_version()}, mpmath {mpmath.__version__} "
            f"(backend {mpmath.libmp.BACKEND}), {os.cpu_count()} CPUs, revision {git_revision()}")


def print_ops(passes, label):
    medians = op_times(passes)
    for i, (res, t) in enumerate(zip(passes[0], medians)):
        raw = statistics.median(p[i].raw_op_s for p in passes)
        print(f"  {label} {t:9.4f} ref s ({raw:.4f} s measured)  rss {res.rss_mb:6.1f} MB  "
              f"{' '.join(res.op.argv)}")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "logjones" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'logjones' / 'cli.py'} is missing")
    ops = WORKLOADS[args.workload]
    began = time.monotonic()
    deadline = began + RUN_BUDGET_S + 15
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"environment: {environment()}; LOGJONES_PRECISION cleared")

    probe_setup(deadline)  # warm-up: compiles bytecode in a fresh checkout
    untraced, traced, setups = [], [], []
    spans_dir = OUT / "spans" / args.workload
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    else:
        setups = [probe_setup(deadline) for _ in range(SETUP_PROBES)]
    measuring = time.monotonic()
    while True:
        start = time.monotonic()
        untraced.append(run_pass(ops, deadline))
        if args.trace:
            traced.append(run_pass(ops, deadline, spans_dir))
        last = time.monotonic() - start
        now = time.monotonic()
        if now - measuring >= args.seconds or now - began + last > RUN_BUDGET_S:
            break

    check_results(untraced + traced, args.seed)
    every = [r for p in untraced + traced for r in p]
    failed = [r for r in every if r.failed]
    correct = not any(r.rc == 0 and r.problems for r in every)
    for res in failed:
        print(f"FAILED (exit {res.rc}): {' '.join(res.op.argv)}")
        for line in (res.problems or res.stderr.strip().splitlines()[-5:]):
            print(f"    {line}")

    print(f"{len(untraced)} untraced and {len(traced)} traced passes of {len(ops)} operations")
    print_ops(untraced, "untraced")
    if args.trace:
        print_ops(traced, "traced  ")
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, repeat = per_layer(traced, untraced, names)
        if not repeat:
            print("warning: layer counts differ between traced passes")
    else:
        setups += [r.setup_s for p in untraced for r in p]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        computed = end_to_end(untraced, setups)
        metrics = {name: computed[name] for name in units}
        for name, value in kind_rates(untraced).items():
            print(f"  {name} = {value:.6g} 1/s")
        print(f"  set-up samples: {len(setups)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(2)
