"""Time wordgrowth's pipeline stages, growth profiles or index engine.

    python scripts/timings.py MODE LABEL [--runs N] [--timeout S] [--as-limit MIB]
        SIDE=SRC [SIDE=SRC ...] [CASE ...]

Each ``SRC`` is the ``src`` directory of a checkout (this one's is
``src``), so one script measures two commits side by side.  Each case
runs ``--runs`` times per side (default 3), each run in a fresh process
stopped after ``--timeout`` seconds (default 60); a side that times out
is recorded as such and not run again on that case.  ``--as-limit``
caps each fresh process's address space (``RLIMIT_AS``) at MIB MiB, so
that a run that outgrows it fails with an allocation error instead of
driving a machine without swap into its out-of-memory killer; the
header records the limit (null without one).  Round i starts with
side i mod (the number of sides), so a slow spell of the machine hits
the sides alike.  Every run of one side must agree on the mode's
identity keys.  ``BENCH_<MODE>_<LABEL>.json``, at the repository root,
gets one header, then for each case and side the identity keys, the
best, quartiles, median and every run of each time, and every run's
other values.  The modes, and their cases (all of them when none is
named):

``stages``  ``K,BETA,CAP`` times ``powerfree.approximation_bounds`` at
    delta = 1e-7 and each stage it calls, wrapped in ``powerfree``'s
    namespace (see ``STAGES``), with the sizes read off what they return
    and the peak RSS as each ends (``lower_bound`` has no time when it
    raises, as it does where no bound exists); ``tm`` times the best of
    101 builds of each Thue-Morse level's identity-frame trie.
``profile``  ``asymptotic_profile`` at delta = 1e-6 of ``perfbench``'s
    ``tm2.dfa`` and ``tm2.ad`` (built as ``dfa-report`` and ``fad`` build
    them), of Thue-Morse levels 3-5, of ``dag`` (``dag_automaton``) and
    of ``chain`` (``chain_automaton``), with the pairs of its
    ``_CounterProduct``, its ``graph_scc`` calls and a hash of the
    report's ``repr``, which holds every certified bound; and, per run,
    the certificate streams it opened (``_certificates`` calls) and the
    float passes it ran (``_float_vector`` calls).
``engine``  ``LEVEL/1e-PLACES`` reads the certificate stream of the one
    nontrivial component of Thue-Morse level LEVEL to width 2e-PLACES,
    and times the float pass and the continuation (from the second
    certificate on), with the steps and the final precision replayed by
    the engine's stall rule (``replay``); ``LEVEL/profile`` times that
    level's ``asymptotic_profile``.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import timeit
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a fresh process imports this file and runs one case
CHILD = f"import sys; sys.path.insert(0, {str(HERE)!r}); import timings; timings.child()"


def peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def watch(module, name: str, seen: Callable) -> None:
    """Replace ``module.name``, which the module's own code calls, by a
    wrapper that passes each call's seconds and result to ``seen``."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        out = inner(*args, **kwargs)
        seen(time.perf_counter() - start, out)
        return out

    setattr(module, name, wrapper)


STAGES_DELTA = Fraction(1, 10**7)


def _graph_sizes(out) -> dict:
    graph, moves = out
    held = (graph.indptr, graph.indices, graph.weights, *moves)
    return {
        "states": len(graph),
        "edges": len(graph.indices),
        "held_mb_after_quotient": round(sum(a.nbytes for a in held) / 2**20, 1),
    }


# each name approximation_bounds calls: its stage, and the sizes read off
# what it returns (read at once, so that no stage's output outlives its use)
STAGES = {
    "minimal_word_arrays": ("minimal_powers", lambda out: {
        "visited": out[1], "words": sum(len(a) for a in out[0].values()),
    }),
    "_quotient_graph": ("quotient", _graph_sizes),
    "cyclic_components": ("components", lambda out: {
        "cyclic_states": sorted(len(c) for c in out),
    }),
    "digraph_index": ("index", lambda out: {}),
    "_lifted_components": ("lift", lambda out: {}),
    "lower_bound": ("lower_bound", lambda out: {}),
}


def stages_run(case: str) -> dict:
    from wordgrowth import powerfree

    if case == "tm":
        return tm_trie_times()
    k, token, cap = case.split(",")
    times, peaks, sizes = {}, {}, {}

    def ended(stage, read):
        def seen(seconds, out):
            times[stage], peaks[stage] = seconds, peak_rss_mb()
            sizes.update(read(out))

        return seen

    for name, (stage, read) in STAGES.items():  # a name powerfree lacks raises AttributeError
        watch(powerfree, name, ended(stage, read))
    bound = powerfree.ExponentBound.parse(token)
    start = time.perf_counter()
    result = powerfree.approximation_bounds(int(k), bound, int(cap), delta=STAGES_DELTA)
    times["bounds"] = time.perf_counter() - start
    return {
        "times": times,
        **sizes,
        "upper": [str(result.upper.lo), str(result.upper.hi)],
        "lower": None if result.lower is None else str(result.lower),
        "peak_rss_mb_after": peaks,
        "peak_rss_mb": peak_rss_mb(),
    }


def tm_trie_times() -> dict:
    """The best of 101 identity-frame trie builds of each Thue-Morse
    level, the garbage collector off (as ``timeit`` runs)."""
    from wordgrowth.fad import FailureTrie, tm_antidictionary

    times = {}
    for level in range(-1, 6):
        build = partial(FailureTrie, 2, tm_antidictionary(level).words)
        times[f"trie_{level}"] = min(timeit.repeat(build, number=1, repeat=101))
    return {"times": times}


PROFILE_DELTA = Fraction(1, 10**6)


def dag_automaton(states=9400, r=64, seed=2026):
    """An r-cycle whose state 0 leads into a random acyclic automaton:
    state s of the acyclic part moves to s + 1 on letter 0 and to a
    random later state on letter 1.  Every state accepts."""
    import numpy as np
    from wordgrowth.automaton import Dfa

    rng = random.Random(seed)
    n = r + states
    table = np.full((n, 2), -1)
    table[:r, 0] = (np.arange(r) + 1) % r
    table[0, 1] = r
    for q in range(r, n - 1):
        table[q] = q + 1, rng.randrange(q + 1, n)
    return Dfa(2, table, 0, range(n))


def chain_automaton(count=12, first=8):
    """``count`` strong components in a row, of ``first``, ``first`` + 1,
    ... states: component i is a cycle on letter 0 with a chord from its
    first state to its third on letter 1, so it has period 1 and rows of
    one and two letters, and its last state leads to the next component
    on letter 1.  Every state accepts."""
    import numpy as np
    from wordgrowth.automaton import Dfa

    n = count * first + count * (count - 1) // 2
    table = np.full((n, 2), -1)
    start = 0
    for size in range(first, first + count):
        table[start:start + size, 0] = start + (np.arange(size) + 1) % size
        table[start, 1] = start + 2
        start += size
        if start < n:
            table[start - 1, 1] = start
    return Dfa(2, table, 0, range(n))


def profile_automaton(case: str):
    """The automaton a profile case profiles, built as the CLI builds it."""
    from wordgrowth.automaton import parse_dfa, trim
    from wordgrowth.fad import fad_automaton, parse_antidictionary, tm_antidictionary

    path = ROOT / "perfbench" / "data" / case
    if case.endswith(".dfa"):
        return trim(parse_dfa(path.read_text()))
    if case.endswith(".ad"):
        return fad_automaton(parse_antidictionary(path.read_text()))
    if case == "dag":
        return dag_automaton()
    if case == "chain":
        return chain_automaton()
    return fad_automaton(tm_antidictionary(int(case[2:])))


def profile_run(case: str) -> dict:
    from wordgrowth import growth

    dfa = profile_automaton(case)
    scc_calls, pairs, streams, passes = [], [], [], []
    watch(growth, "graph_scc", lambda seconds, out: scc_calls.append(seconds))
    watch(growth, "_CounterProduct", lambda seconds, out: pairs.append(len(out.states)))
    watch(growth, "_certificates", lambda seconds, out: streams.append(seconds))
    watch(growth, "_float_vector", lambda seconds, out: passes.append(seconds))
    start_rss_mb = peak_rss_mb()
    start = time.perf_counter()
    report = growth.asymptotic_profile(dfa, PROFILE_DELTA)
    profile_s = time.perf_counter() - start
    return {
        "times": {"profile": profile_s},
        "states": dfa.state_count,
        "residue_count": report.residue_count,
        "pairs": sum(pairs),
        "graph_scc_calls": len(scc_calls),
        "report_sha256": hashlib.sha256(repr(report).encode()).hexdigest(),
        "streams": len(streams),
        "float_passes": len(passes),
        "peak_rss_mb": peak_rss_mb(),
        "start_rss_mb": start_rss_mb,
    }


def replay(widths: list, p: int, n: int) -> tuple:
    """The continuation steps and the precision of the last certificate,
    from the widths of a stream of a component of n states and period p,
    by the engine's rule: 96 bits at first, doubled after ``patience``
    windows of ``window`` checkpoints in a row that each narrow the width
    by less than 2 %."""
    every, window, patience = (16, 1, 3) if p == 1 else (p, -(-max(16, n) // p), 1)
    prec, stall = 96, 0
    prev = widths[1]
    for checkpoint, gap in enumerate(widths[2:-1], 1):
        if checkpoint % window:
            continue
        stall = stall + 1 if gap > prev * Fraction(49, 50) else 0
        if stall == patience:
            prec, stall = prec * 2, 0
        prev = gap
    return every * (len(widths) - 2), prec


def engine_run(case: str) -> dict:
    # a stream's precision can pass the 4,300 digits that repr allows
    sys.set_int_max_str_digits(0)
    from wordgrowth import automaton, growth
    from wordgrowth.fad import fad_automaton, tm_antidictionary

    level, what = case.split("/")
    dfa = fad_automaton(tm_antidictionary(int(level)))
    if what == "profile":
        start = time.perf_counter()
        report = growth.asymptotic_profile(dfa)
        return {
            "times": {"profile": time.perf_counter() - start},
            "residue_count": report.residue_count,
            "report_sha256": hashlib.sha256(report.to_json_text().encode()).hexdigest(),
        }
    graph = automaton.transition_graph(dfa)
    dec = automaton.graph_scc(graph)
    (c,) = dec.nontrivial.tolist()
    (comp,) = automaton.component_graphs(graph, [dec.members_of(c)])
    p = automaton.graph_period(comp)
    float_s = []
    watch(growth, "_float_vector", lambda seconds, out: float_s.append(seconds))
    delta = Fraction(what)
    stream = []
    for iv in growth._certificates(comp):
        stream.append(iv)
        if len(stream) == 2:
            start = time.perf_counter()
        if iv.width <= 2 * delta:
            break
    continuation_s = time.perf_counter() - start
    steps, precision = replay([iv.width for iv in stream], p, len(comp))
    return {
        "times": {"float": float_s[0], "continuation": continuation_s},
        "period": p,
        "certificates": len(stream),
        "steps": steps,
        "precision": precision,
        "stream_sha256": hashlib.sha256(repr(stream).encode()).hexdigest(),
        "states": len(comp),
        "edges": len(comp.indices),
    }


class Mode(NamedTuple):
    run: Callable  # one case in this process: a dict with the key "times"
    cases: tuple  # the cases run when none is named
    same: tuple  # the identity keys every run of one side must agree on
    header: dict


MODES = {
    "stages": Mode(
        stages_run,
        ("2,3,17", "2,3,20", "3,2,32", "2,3,24", "3,2,36", "3,2,40", "tm"),
        ("visited", "words", "states", "edges", "cyclic_states", "held_mb_after_quotient",
         "upper", "lower"),
        {"delta": str(STAGES_DELTA)},
    ),
    "profile": Mode(
        profile_run,
        ("tm2.dfa", "tm2.ad", "tm3", "tm4", "tm5", "dag", "chain"),
        ("states", "residue_count", "pairs", "graph_scc_calls", "report_sha256"),
        {"delta": str(PROFILE_DELTA)},
    ),
    "engine": Mode(
        engine_run,
        tuple(f"{level}/1e-{places}" for level in (3, 4, 5, 6) for places in (20, 40))
        + ("6/profile",),
        ("period", "certificates", "steps", "precision", "stream_sha256", "states", "edges",
         "residue_count", "report_sha256"),
        {},
    ),
}


def child() -> None:
    """Run ``sys.argv[1:]``, a mode, a ``src`` directory and a case, and
    print the result as JSON."""
    mode, src, case = sys.argv[1:]
    sys.path.insert(0, src)
    print(json.dumps(MODES[mode].run(case)))


def fresh_run(mode: str, src: str, case: str, timeout: float, as_limit_mib=None):
    """One run in a fresh process, its address space capped at
    ``as_limit_mib`` MiB unless that is None: its result, or None when it
    takes longer than ``timeout`` seconds."""
    limit = None if as_limit_mib is None else (as_limit_mib << 20,) * 2
    try:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, mode, src, case],
            capture_output=True, text=True, timeout=timeout,
            preexec_fn=limit and partial(resource.setrlimit, resource.RLIMIT_AS, limit),
        )
    except subprocess.TimeoutExpired:
        return None
    if done.returncode:
        raise SystemExit(f"{mode} {case} on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def rounds(sides: list, runs: int) -> list:
    """The order of the sides in each round: round i starts with side
    i mod len(sides), the others following in turn."""
    return [sides[i % len(sides):] + sides[:i % len(sides)] for i in range(runs)]


def spread(values: list) -> dict:
    """The best, the quartiles, the median and every value, in seconds."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {
        "best": round(min(values), 7), "q1": round(q1, 7), "median": round(median, 7),
        "q3": round(q3, 7), "runs": [round(x, 7) for x in values],
    }


def summarise(results: list, same: tuple) -> dict:
    """The identity keys, which every result must agree on, the spread of
    each time, and every result's other values."""
    first = results[0]
    for key in same:
        if any(r.get(key) != first.get(key) for r in results):
            raise ValueError(f"runs disagree on {key}")
    return {
        **{key: first[key] for key in same if key in first},
        "times_s": {name: spread([r["times"][name] for r in results]) for name in first["times"]},
        **{key: [r[key] for r in results] for key in first if key not in same and key != "times"},
    }


def measure(
    mode: str, sides: dict, cases: list, runs: int, timeout: float, as_limit_mib=None
) -> dict:
    """The record of every case run ``runs`` times on each side, the
    sides taking turns, each run's address space capped at
    ``as_limit_mib`` MiB unless that is None."""
    import numpy

    order = rounds(list(sides), runs)
    record = {
        "mode": mode,
        **MODES[mode].header,
        "machine": machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "runs_per_case": runs,
        "timeout_s": timeout,
        "as_limit_mib": as_limit_mib,
        "first_side_by_round": [sides_in_turn[0] for sides_in_turn in order],
        "cases": {},
    }
    for case in cases:
        # a side's results, or None once one of its runs has timed out
        results = {side: [] for side in sides}
        for sides_in_turn in order:
            for side in sides_in_turn:
                if results[side] is not None:
                    out = fresh_run(mode, sides[side], case, timeout, as_limit_mib)
                    results[side] = None if out is None else results[side] + [out]
        summary = record["cases"][case] = {}
        for side, side_results in results.items():
            try:
                summary[side] = (
                    {"timed_out_s": timeout} if side_results is None
                    else summarise(side_results, MODES[mode].same)
                )
            except ValueError as exc:
                raise SystemExit(f"{case}, {side}: {exc}") from None
            print(case, side, summary[side], flush=True)
    return record


def machine() -> str:
    """The CPU model, from ``/proc/cpuinfo`` where there is one, and count."""
    try:
        info = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        info = []
    models = [line.split(":", 1)[1].strip() for line in info if line.startswith("model name")]
    return f"{models[0] if models else platform.machine()}, {os.cpu_count()} CPUs"


def main(argv: list) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("label")
    parser.add_argument("args", nargs="+", metavar="SIDE=SRC | CASE")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--as-limit", type=int, metavar="MIB")
    args = parser.parse_intermixed_args(argv)
    sides = {
        side: str(Path(src).resolve())
        for side, src in (a.split("=", 1) for a in args.args if "=" in a)
    }
    if not sides:
        parser.error("name at least one SIDE=SRC")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.as_limit is not None and args.as_limit < 1:
        parser.error("--as-limit must be at least 1")
    cases = [a for a in args.args if "=" not in a] or MODES[args.mode].cases
    record = measure(args.mode, sides, cases, args.runs, args.timeout, args.as_limit)
    path = ROOT / f"BENCH_{args.mode}_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("wrote", path.name)


if __name__ == "__main__":
    main(sys.argv[1:])
