"""wordgrowth benchmark: certified queries through the CLI, timed and checked.

Run from the repository root:

    python3 perfbench/run.py --workload cubefree-bounds --seed 1 --seconds 30 --trace 0

One client sends the workload's queries back to back through the
``wordgrowth`` CLI entry point, in process (``--format json
--threads 1``, BLAS and OpenMP pinned to one thread).  A pass runs every
query once (the small probes three times); passes repeat while the next
one fits in ``--seconds``.  Each query counts by its fastest run, as with
``timeit``: on a shared machine the slower repeats measure interference,
not the program.  ``setup_s`` is the median of several fresh processes
that only set up.  All end-to-end times are rescaled by the machine's
speed during the run, measured with a fixed kernel (see
``REFERENCE_KERNEL_S``).  Every answer is checked against independent
references and the sizes in ``expected.json``; a failed check counts in
``failed`` and does not stop the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same untraced passes, then one pass with every public layer function
wrapped (see ``tracer.py``), reports the per-layer metrics and the
tracing overhead, and writes the spans to ``perfbench/.work/``.

Human-readable lines come first (machine, passes, failures, every metric
with its unit); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles

from tracer import Tracer
from workloads import WORKLOADS, check, load_expected, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_RUNS = 5
SETUP_KERNEL_RUNS = 20

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("powerfree_s", "s"),
    ("circular_s", "s"),
    ("profile_s", "s"),
    ("peak_rss_mb", "MB"),
)
FAMILIES = ("powerfree_s", "circular_s", "profile_s")

PER_LAYER = (
    ("powerfree.minimal_powers.s", "s"),
    ("powerfree.minimal_powers.calls", "count"),
    ("powerfree.minimal_powers.words", "count"),
    ("powerfree.is_free.s", "s"),
    ("powerfree.is_free.calls", "count"),
    ("powerfree.approximation_bounds.s", "s"),
    ("powerfree.approximation_bounds.self_s", "s"),
    ("powerfree.lower_bound.s", "s"),
    ("powerfree.quotient_states", "count"),
    ("powerfree.antidictionary_size", "count"),
    ("fad.Antidictionary.s", "s"),
    ("fad.Antidictionary.words", "count"),
    ("fad.fad_automaton.s", "s"),
    ("fad.fad_automaton.states", "count"),
    ("automaton.scc.s", "s"),
    ("automaton.scc.calls", "count"),
    ("automaton.scc.states", "count"),
    ("automaton.trim.s", "s"),
    ("automaton.trim.calls", "count"),
    ("growth.digraph_index.s", "s"),
    ("growth.digraph_index.calls", "count"),
    ("growth.digraph_index.vertices", "count"),
    ("growth.approximate_index.s", "s"),
    ("growth.approximate_index.calls", "count"),
    ("growth.classify.s", "s"),
    ("growth.classify.calls", "count"),
    ("growth.polynomial_index_general.s", "s"),
    ("growth.polynomial_index_general.calls", "count"),
    ("growth.asymptotic_profile.s", "s"),
    ("growth.asymptotic_profile.self_s", "s"),
    ("growth.residue_count", "count"),
    ("circular.root_complexity.s", "s"),
    ("circular.root_complexity.self_s", "s"),
    ("circular.minimal_roots.s", "s"),
    ("circular.minimal_roots.roots", "count"),
    ("circular.forbidden_period_scan.s", "s"),
    ("circular.forbidden_period_scan.periods", "count"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

# A fixed computation, timed before every query: border tables of fixed
# words (the inner loop of power-freeness tests), small numpy products,
# Fraction sums, and dict and list building, the kinds of work the program
# does.  On a shared machine the speed of the same code drifts by tens of
# percent from one minute to the next.  A query's fastest of several runs
# is roughly its 10th percentile, so the kernel's 10th percentile in the
# same run tells how fast the machine ran at such moments; every end-to-end
# time is rescaled by REFERENCE_KERNEL_S over it.  REFERENCE_KERNEL_S is
# about the kernel's 10th percentile on the 2-vCPU Intel Xeon VM where the
# baseline was taken, in its fast phases.
KERNEL_WORDS = tuple(tuple((i * 7 + j * j) % 3 for j in range(60)) for i in range(400))
REFERENCE_KERNEL_S = 0.0037


def kernel():
    import numpy as np

    matrix = np.arange(64.0).reshape(8, 8) / 64
    start = time.perf_counter()
    for w in KERNEL_WORDS:
        border = [0] * (len(w) + 1)
        k = 0
        for i in range(1, len(w)):
            while k and w[i] != w[k]:
                k = border[k]
            if w[i] == w[k]:
                k += 1
            border[i + 1] = k
    vector = np.ones(8)
    for _ in range(150):
        vector = matrix @ vector
        vector /= vector.sum()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    table = {}
    for i in range(6000):
        table[(i * 7919) % 6007, i & 7] = i
    rows = [dict.fromkeys(range(3), i) for i in range(1500)]
    del total, table, rows
    return time.perf_counter() - start


def speed(kernel_s):
    """REFERENCE_KERNEL_S over the 10th percentile of the kernel times."""
    return REFERENCE_KERNEL_S / quantiles(kernel_s, n=10)[0]


PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def set_up(workload, seed, tiny, workdir):
    """Import the program and generate the inputs: what ``setup_s`` times."""
    for var in PINNED:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from wordgrowth.cli import main as cli_main

    workdir.mkdir(parents=True, exist_ok=True)
    return cli_main, prepare(workload, seed, tiny, workdir)


def measure_setup(args):
    """Seconds from spawning a fresh process to the end of its set-up,
    rescaled by the kernel timed in that process right after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        ready, *kernel_s = map(float, child.stdout.split())
        samples.append((ready - start) * speed(kernel_s))
    return samples


class Session:
    """Runs queries, checks answers and counts attempts and failures."""

    def __init__(self, cli_main, prepared, expected):
        self.cli_main = cli_main
        self.prepared = prepared
        self.expected = expected
        self.attempted = 0
        self.problems = []
        self.kernel_s = []

    def execute(self, query, argv, tracer=None):
        self.attempted += 1
        buf = io.StringIO()
        gc.collect()
        self.kernel_s.append(kernel())
        span = nullcontext() if tracer is None else tracer.query_span(query.key)
        start = time.perf_counter()
        try:
            with span, redirect_stdout(buf):
                self.cli_main(["--format", "json", "--threads", "1", *argv],
                              standalone_mode=False)
        except Exception as exc:  # a failing query is counted; the run goes on
            seconds = time.perf_counter() - start
            self.problems.append(f"{query.key}: raised {exc!r}")
            return seconds
        seconds = time.perf_counter() - start
        try:
            found = check(query, buf.getvalue(), self.expected)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            found = [f"{query.key}: malformed answer ({exc!r})"]
        self.problems.extend(found)
        return seconds

    def run_pass(self, tracer=None):
        """Seconds of each query in the seeded order: the fastest of its
        ``reps`` runs, or of one traced run."""
        return [min(self.execute(query, argv, tracer)
                    for _ in range(1 if tracer else query.reps))
                for query, argv in self.prepared]

    def run_passes(self, seconds):
        """Passes until the next one would overrun ``seconds`` (at least one)."""
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(self.run_pass())
            spent = time.perf_counter() - begin
            if spent + spent / len(passes) > seconds:
                return passes

    def fastest(self, passes):
        """Each query's fastest pass, summed into the end-to-end times."""
        totals = dict.fromkeys(("wall_s",) + FAMILIES, 0.0)
        for (query, _), seconds in zip(self.prepared, map(min, zip(*passes))):
            totals["wall_s"] += seconds
            if query.family:
                totals[query.family] += seconds
        return totals


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions}


def run(args, expected=None):
    """Measure one workload; returns (result, report lines)."""
    setup_samples = None if args.trace else measure_setup(args)
    workdir = WORK / f"inputs-{os.getpid()}"
    try:
        cli_main, prepared = set_up(args.workload, args.seed, args.tiny, workdir)
        session = Session(cli_main, prepared, load_expected() if expected is None else expected)
        passes = session.run_passes(args.seconds)
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced = sum(session.run_pass(tracer))
            values = tracer.totals()
            values["trace.wall_s"] = traced
            values["trace.overhead_s"] = traced - median(map(sum, passes))
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans, {"workload": args.workload, "seed": args.seed,
                                 "machine": machine()})
            names = PER_LAYER
        else:
            names = END_TO_END
            raw = session.fastest(passes)
            factor = speed(session.kernel_s)
            values = {name: seconds * factor for name, seconds in raw.items()}
            values["setup_s"] = median(setup_samples)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(session.problems)
    lines = [
        f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
        f"trace {args.trace} tiny {int(args.tiny)}",
        "# machine " + " ".join(f"{k}={v!r}" for k, v in machine().items()),
        f"# passes {len(passes)}, query seconds per pass: "
        + " ".join(f"{sum(p):.4f}" for p in passes),
    ]
    if args.trace:
        lines.append(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        lines.append(f"# kernel speed factor {factor:.4f}; "
                     "unscaled: " + " ".join(f"{k} {v:.4f}" for k, v in raw.items()))
        lines.append("# setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_samples))
    lines += [f"# FAIL {problem}" for problem in session.problems]
    absent = [name for name, _ in names if name not in values]
    lines += [f"# absent {name}: not called on this workload" for name in absent]
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in names}
    table = list(metrics.items()) + [
        ("failed_frac", {"value": failed / session.attempted, "unit": "ratio"})]
    lines += [f"{name:<42} {m['value']:<14.6g} {m['unit']}" for name, m in table]
    result = {"correct": failed == 0, "attempted": session.attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "wordgrowth" / "cli.py").is_file():
        print(f"perfbench: no wordgrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        workdir = WORK / f"setup-{os.getpid()}"
        try:
            set_up(args.workload, args.seed, args.tiny, workdir)
            # the moment the first query could start, on the clock all processes share
            print(time.clock_gettime(time.CLOCK_MONOTONIC))
            print(*(kernel() for _ in range(SETUP_KERNEL_RUNS)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result, lines = run(args)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
