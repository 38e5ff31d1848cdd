"""Time growth profiles on Thue-Morse automata and a random acyclic one.

    python scripts/profile_times.py LABEL [--runs N] SIDE=SRC [SIDE=SRC ...]

Each ``SRC`` is the ``src`` directory of a checkout (this one's is
``src``), so two commits are measured by one script.  The cases are
``perfbench/data/tm2.dfa`` (parsed and trimmed, as ``dfa-report`` does),
``perfbench/data/tm2.ad`` (parsed and built by ``fad_automaton``, as
``fad`` does), the Thue-Morse automata of levels 3, 4 and 5, and
``dag``: a 64-cycle whose state 0 leads into a seeded random acyclic
automaton of 9,400 states, so that nearly every pair of its counter
product is a component of its own.  For each,
``asymptotic_profile`` runs at delta = 1e-6 and is timed alone.  The
record gives the best and the median time, the automaton's states, the
residue count, the pairs of the counter product mod that count, the
calls the profile made to ``graph_scc`` and to ``trim`` (counted
through the names ``growth`` imports; 0 when it imports none), a hash
of the report's ``repr``, which holds every certified ``Fraction``, and
each run's time and peak RSS, next to the peak before the profile
started (the automaton built).  Each case runs ``--runs`` times
(default 3), each in a fresh process, the sides taking turns.  The
result goes to ``BENCH_profile_<LABEL>.json`` at the repository root.
"""

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
from fractions import Fraction
from pathlib import Path

from stage_times import cpu_model

ROOT = Path(__file__).resolve().parent.parent
CASES = ("tm2.dfa", "tm2.ad", "tm3", "tm4", "tm5", "dag")
DELTA = Fraction(1, 10**6)
# what every run of a case must agree on, on every side
SAME = ("states", "residue_count", "pairs", "report_sha256")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def dag_automaton(states=9400, r=64, seed=2026):
    """An r-cycle whose state 0 leads into a random acyclic automaton:
    state s of the acyclic part moves to s + 1 on letter 0 and to a
    random later state on letter 1.  Every state accepts."""
    from wordgrowth.automaton import Dfa

    rng = random.Random(seed)
    rows = [{0: (i + 1) % r} for i in range(r)]
    rows[0][1] = r
    for q in range(r, r + states - 1):
        rows.append({0: q + 1, 1: rng.randrange(q + 1, r + states)})
    rows.append({})
    return Dfa(2, rows, 0, range(len(rows)))


def automaton(case: str):
    """The automaton a case profiles, built as the CLI builds it."""
    from wordgrowth.automaton import parse_dfa, trim
    from wordgrowth.fad import fad_automaton, parse_antidictionary, tm_antidictionary

    if case.endswith(".dfa"):
        return trim(parse_dfa((ROOT / "perfbench" / "data" / case).read_text()))
    if case.endswith(".ad"):
        text = (ROOT / "perfbench" / "data" / case).read_text()
        return fad_automaton(parse_antidictionary(text))
    if case == "dag":
        return dag_automaton()
    return fad_automaton(tm_antidictionary(int(case[2:])))


def one_run(src: str, case: str) -> dict:
    """One case's profile, timed in this process."""
    sys.path.insert(0, src)
    from wordgrowth import growth

    calls = {"graph_scc": 0, "trim": 0}

    def counted(name):
        inner = getattr(growth, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    dfa = automaton(case)
    for name in calls:
        if hasattr(growth, name):
            setattr(growth, name, counted(name))
    start_rss_mb = peak_rss_mb()
    start = time.perf_counter()
    report = growth.asymptotic_profile(dfa, DELTA)
    profile_s = time.perf_counter() - start
    rss_mb = peak_rss_mb()
    return {
        "profile_s": profile_s,
        "peak_rss_mb": rss_mb,
        "start_rss_mb": start_rss_mb,
        "states": dfa.state_count,
        "residue_count": report.residue_count,
        "pairs": len(growth._CounterProduct(dfa, report.residue_count).states),
        "graph_scc_calls": calls["graph_scc"],
        "trim_calls": calls["trim"],
        "report_sha256": hashlib.sha256(repr(report).encode()).hexdigest(),
    }


def main(argv: list) -> None:
    if argv[:1] == ["--one"]:
        print(json.dumps(one_run(argv[1], argv[2])))
        return
    if not argv or "=" in argv[0]:
        raise SystemExit(__doc__)
    label, argv = argv[0], argv[1:]
    runs = 3
    if argv[:1] == ["--runs"]:
        runs, argv = int(argv[1]), argv[2:]
    if not argv or not all("=" in a for a in argv):
        raise SystemExit(__doc__)
    sides = dict(a.split("=", 1) for a in argv)
    import numpy

    record = {
        "label": label,
        "delta": str(DELTA),
        "machine": f"{cpu_model()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "runs_per_case": runs,
        "cases": {},
    }
    for name in CASES:
        cases = {}
        # the sides take turns, so a slow spell of the machine hits them alike
        all_results = {side: [] for side in sides}
        for _ in range(runs):
            for side, src in sides.items():
                all_results[side].append(json.loads(subprocess.run(
                    [sys.executable, __file__, "--one", str(Path(src).resolve()), name],
                    check=True, capture_output=True, text=True,
                ).stdout))
        for side, results in all_results.items():
            first = results[0]
            cases[side] = {
                "best_profile_s": round(min(r["profile_s"] for r in results), 4),
                "median_profile_s": round(statistics.median(r["profile_s"] for r in results), 4),
                **{key: first[key] for key in ("graph_scc_calls", "trim_calls") + SAME},
                "profile_s": [round(r["profile_s"], 4) for r in results],
                "peak_rss_mb": [round(r["peak_rss_mb"], 1) for r in results],
                "start_rss_mb": [round(r["start_rss_mb"], 1) for r in results],
            }
            for key in SAME:
                if any(r[key] != first[key] for r in results):
                    raise SystemExit(f"{name}, {side}: runs disagree on {key}")
            print(name, side, cases[side], flush=True)
        for key in SAME:
            if len({case[key] for case in cases.values()}) > 1:
                raise SystemExit(f"{name}: sides disagree on {key}")
        record["cases"][name] = cases
    path = ROOT / f"BENCH_profile_{label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("wrote", path.name)


if __name__ == "__main__":
    main(sys.argv[1:])
