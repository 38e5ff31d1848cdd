"""Time the stages of ``powerfree.approximation_bounds`` one by one.

    python scripts/stage_times.py LABEL [--runs N] [K,BETA,CAP ...]
    python scripts/stage_times.py --tm-tries

The stages are the canonical minimal-power search (the level search
that ``approximation_bounds`` runs, to one word array per period), the
quotient build (from those arrays, as the bounds path passes them),
the cycle-carrying components (``growth.cyclic_components``; older
records call this stage ``tarjan``), the certified index engine at
delta = 1e-7, the lift of the unique component (from the quotient's
move and voltage tables) and the lower bound.
Each case runs ``--runs`` times (default 3), each time in a fresh
process; the record keeps each stage's best time, the sizes (free words
visited, minimal words, states, edges, states in cyclic components),
``held_mb_after_quotient``, the ``nbytes`` of the arrays the quotient
stage hands on (the graph and the lift's tables), each run's peak RSS,
and the process's peak RSS as each stage ended.  The record also keeps
``tm_trie_build_us``, the best of 101 builds, in one fresh process, of
the identity-frame trie of each Thue-Morse antidictionary level -1..5;
``--tm-tries`` prints just these.
The result goes to ``BENCH_stages_<LABEL>.json`` at the repository
root.  The package on ``PYTHONPATH`` is measured, else this checkout's
``src``; an older tree is measured with the script of its own commit
(``--tm-tries`` runs on any tree that has ``fad.FailureTrie``).
"""

import json
import os
import platform
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ["2,3,17", "2,3,20", "3,2,32", "2,3,24", "3,2,36", "3,2,40"]
DELTA = Fraction(1, 10**7)
# what every run of a case must agree on
SAME = (
    "visited", "words", "states", "edges", "cyclic_states", "held_mb_after_quotient", "upper",
    "lower",
)


def one_run(case: str) -> dict:
    """Every stage of one case, timed in this process."""
    sys.path.append(str(ROOT / "src"))
    import numpy
    from wordgrowth import powerfree
    from wordgrowth.growth import cyclic_components, digraph_index
    from wordgrowth.words import ExponentBound, minimal_word_arrays

    k, token, cap = case.split(",")
    k, cap, bound = int(k), int(cap), ExponentBound.parse(token)
    times, peaks = {}, {}

    def stage(name, call):
        start = time.perf_counter()
        out = call()
        times[name] = time.perf_counter() - start
        peaks[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out

    arrays, visited = stage("minimal_powers", lambda: minimal_word_arrays(
        k, bound, range(1, cap + 1), canonical=True
    ))
    words = sum(len(a) for a in arrays.values())
    graph, moves = stage("quotient", lambda: powerfree._quotient_graph(k, arrays.values()))
    held = (graph.indptr, graph.indices, graph.weights, *moves)
    cyclic = stage("components", lambda: cyclic_components(graph))
    upper = stage("index", lambda: digraph_index(graph, DELTA, cyclic))
    lifted = stage("lift", lambda: [powerfree._lifted_components(moves, k, c) for c in cyclic])
    lower = None
    if len(cyclic) == 1 and lifted == [1]:
        try:
            lower = stage("lower_bound", lambda: powerfree.lower_bound(upper.lo, cap))
        except powerfree.NoLowerBoundError:
            pass
    return {
        "times_s": times,
        "peak_rss_mb_after": peaks,
        "visited": visited,
        "words": words,
        "states": len(graph),
        "edges": sum(len(graph[q]) for q in range(len(graph))),
        "cyclic_states": sorted(len(c) for c in cyclic),
        "held_mb_after_quotient": round(sum(a.nbytes for a in held) / 2**20, 1),
        "upper": [str(upper.lo), str(upper.hi)],
        "lower": None if lower is None else str(lower),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def tm_trie_times(builds: int = 101) -> dict:
    """Best identity-frame trie build of each Thue-Morse level, in µs."""
    sys.path.append(str(ROOT / "src"))
    from wordgrowth.fad import FailureTrie, tm_antidictionary

    best = {}
    for level in range(-1, 6):
        words = tm_antidictionary(level).words
        times = []
        for _ in range(builds):
            start = time.perf_counter()
            FailureTrie(2, words)
            times.append(time.perf_counter() - start)
        best[str(level)] = round(min(times) * 1e6, 1)
    return best


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main(argv: list) -> None:
    if not argv:
        raise SystemExit(__doc__)
    if argv[:1] == ["--one"]:
        print(json.dumps(one_run(argv[1])))
        return
    if argv[:1] == ["--tm-tries"]:
        print(json.dumps(tm_trie_times()))
        return
    label, rest = argv[0], argv[1:]
    runs = 3
    if rest[:1] == ["--runs"]:
        runs, rest = int(rest[1]), rest[2:]
    record = {
        "label": label,
        "delta": str(DELTA),
        "machine": f"{cpu_model()}, {os.cpu_count()} CPUs",
        "runs_per_case": runs,
        "cases": {},
    }
    for case in rest or CASES:
        results = []
        for _ in range(runs):
            out = subprocess.run(
                [sys.executable, __file__, "--one", case],
                check=True, capture_output=True, text=True,
            ).stdout
            results.append(json.loads(out))
        first = results[0]
        for key in SAME:
            if any(r[key] != first[key] for r in results):
                raise SystemExit(f"{case}: runs disagree on {key}")
        record["python"], record["numpy"] = first["python"], first["numpy"]
        record["cases"][case] = {
            "best_s": {
                s: round(min(r["times_s"][s] for r in results), 4) for s in first["times_s"]
            },
            **{key: first[key] for key in SAME},
            "peak_rss_mb": [round(r["peak_rss_mb"], 1) for r in results],
            "peak_rss_mb_after": {
                s: round(max(r["peak_rss_mb_after"][s] for r in results), 1)
                for s in first["peak_rss_mb_after"]
            },
        }
        print(case, record["cases"][case]["best_s"], record["cases"][case]["peak_rss_mb"],
              flush=True)
    record["tm_trie_build_us"] = json.loads(subprocess.run(
        [sys.executable, __file__, "--tm-tries"], check=True, capture_output=True, text=True,
    ).stdout)
    print("tm tries", record["tm_trie_build_us"], flush=True)
    path = ROOT / f"BENCH_stages_{label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("wrote", path.name)


if __name__ == "__main__":
    main(sys.argv[1:])
