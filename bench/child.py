"""Run one logjones CLI operation in a fresh interpreter and report timings.

    python3 bench/child.py probe
    python3 bench/child.py run <cli args...>
    python3 bench/child.py trace <spans file> <cli args...>

``probe`` only sets up: imports logjones.cli and builds its parser.
``run`` then calls ``logjones.cli.main`` as ``python -m logjones.cli``
would.  ``trace`` installs bench/tracer.py first and writes the spans to
the given file.  The CLI's own output goes to stdout and stderr as usual;
the last stderr line is ``@@bench <json>`` with the monotonic time at
which main could be called, the times main started and returned, the
machine-speed samples (``setup_speed`` is the mean of those taken right
after set-up), the exit code, the peak resident set and, when traced, the
per-layer aggregates.
"""

import json
import resource
import signal
import sys
import time

import logjones.cli as cli
import mpmath

cli.build_parser()
READY = time.monotonic()

MARKER = "@@bench "
SAMPLE_EVERY_S = 0.05
SAMPLES_AROUND = 10


def speed_sample():
    """Seconds a fixed chunk of pure-Python work takes here and now.

    The chunk does what the program does most: arithmetic on ints of a few
    hundred bits, dict building and probing, a sparse product of
    polynomials held as dicts, and mpmath complex arithmetic and sines at
    70 digits.  Other work on the machine slows it about as much as it
    slows the program, so run.py divides the program's times by it.
    """
    start = time.perf_counter()
    x = 1
    modulus = (1 << 521) - 1
    table = {}
    for i in range(600):
        x = (x * 0x9E3779B97F4A7C15 + i) % modulus
        table[i & 255] = table.get(i & 255, 0) + (x & 255)
    items = [(i * 7919 % 100003, i) for i in range(500)]
    index = dict(items)
    acc = 0
    for key, value in items:
        acc ^= index[key] + value
    a = {2 * e: e % 5 + 1 for e in range(-12, 12)}
    b = {3 * e: (e % 3 + 1) * 10 ** 12 for e in range(-10, 10)}
    prod = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
    with mpmath.workdps(70):
        z = mpmath.expjpi(mpmath.mpf(1) / 37)
        w = mpmath.mpc(0)
        for k in range(25):
            w = w * z + k
        for k in range(1, 6):
            w += mpmath.sinpi(mpmath.mpf(k) / 151)
    return time.perf_counter() - start


def timed_main(argv):
    """Call cli.main, sampling the machine's speed every SAMPLE_EVERY_S
    while it runs (from SIGALRM) and SAMPLES_AROUND times before and after.
    The samples taken during the call are reported so run.py can subtract
    them from its time."""
    during = []
    before = [speed_sample() for _ in range(SAMPLES_AROUND)]
    signal.signal(signal.SIGALRM, lambda signum, frame: during.append(speed_sample()))
    start = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        rc = cli.main(argv)
        sys.stdout.flush()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    done = time.monotonic()
    after = [speed_sample() for _ in range(SAMPLES_AROUND)]
    return rc, {"start": start, "done": done, "sampling_s": sum(during),
                "speed": before + during + after, "setup_speed": sum(before) / len(before)}


def main():
    mode, argv = sys.argv[1], sys.argv[2:]
    report = {"ready": READY, "module": cli.__file__}
    tracer = None
    if mode == "trace":
        import tracer as tracing
        spans_path, argv = argv[0], argv[1:]
        tracer = tracing.Tracer()
        tracer.install()
    rc = 0
    if mode == "probe":
        report["speed"] = [speed_sample() for _ in range(SAMPLES_AROUND)]
        report["setup_speed"] = sum(report["speed"]) / SAMPLES_AROUND
    else:
        rc, timing = timed_main(argv)
        report.update(timing)
    report["rc"] = rc
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["layers"] = tracer.aggregate()
        tracer.write_spans(spans_path)
    sys.stderr.write(MARKER + json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
