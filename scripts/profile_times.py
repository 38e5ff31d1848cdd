"""Time growth profiles on Thue-Morse automata.

    python scripts/profile_times.py [--runs N] LABEL=SRC [LABEL=SRC ...]

Each ``SRC`` is the ``src`` directory of a checkout (this one's is
``src``), so two commits are measured by one script.  The cases are
``perfbench/data/tm2.dfa`` (parsed and trimmed, as ``dfa-report`` does),
``perfbench/data/tm2.ad`` (parsed and built by ``fad_automaton``, as
``fad`` does) and the Thue-Morse automata of levels 3 and 4.  For each,
``asymptotic_profile`` runs at delta = 1e-6 and is timed alone.  The
record gives the best time, the automaton's states, the residue count,
the calls the profile made to ``graph_scc`` and to ``trim`` (counted
through the names ``growth`` imports; 0 when it imports none) and a
hash of the report's ``repr``, which holds every certified ``Fraction``.
Each case runs ``--runs`` times (default 3), each in a fresh process.
The result goes to ``BENCH_profile_product.json`` at the repository
root.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from stage_times import cpu_model

ROOT = Path(__file__).resolve().parent.parent
CASES = ("tm2.dfa", "tm2.ad", "tm3", "tm4")
DELTA = Fraction(1, 10**6)
# what every run of a case must agree on, on every side
SAME = ("states", "residue_count", "report_sha256")


def automaton(case: str):
    """The automaton a case profiles, built as the CLI builds it."""
    from wordgrowth.automaton import parse_dfa, trim
    from wordgrowth.fad import fad_automaton, parse_antidictionary, tm_antidictionary

    if case.endswith(".dfa"):
        return trim(parse_dfa((ROOT / "perfbench" / "data" / case).read_text()))
    if case.endswith(".ad"):
        text = (ROOT / "perfbench" / "data" / case).read_text()
        return fad_automaton(parse_antidictionary(text))
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
    start = time.perf_counter()
    report = growth.asymptotic_profile(dfa, DELTA)
    profile_s = time.perf_counter() - start
    return {
        "profile_s": profile_s,
        "states": dfa.state_count,
        "residue_count": report.residue_count,
        "graph_scc_calls": calls["graph_scc"],
        "trim_calls": calls["trim"],
        "report_sha256": hashlib.sha256(repr(report).encode()).hexdigest(),
    }


def main(argv: list) -> None:
    if argv[:1] == ["--one"]:
        print(json.dumps(one_run(argv[1], argv[2])))
        return
    runs = 3
    if argv[:1] == ["--runs"]:
        runs, argv = int(argv[1]), argv[2:]
    if not argv or not all("=" in a for a in argv):
        raise SystemExit(__doc__)
    sides = dict(a.split("=", 1) for a in argv)
    import numpy

    record = {
        "delta": str(DELTA),
        "machine": f"{cpu_model()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "runs_per_case": runs,
        "cases": {},
    }
    for name in CASES:
        cases = {}
        for label, src in sides.items():
            results = [
                json.loads(subprocess.run(
                    [sys.executable, __file__, "--one", str(Path(src).resolve()), name],
                    check=True, capture_output=True, text=True,
                ).stdout)
                for _ in range(runs)
            ]
            first = results[0]
            cases[label] = {
                "best_profile_s": round(min(r["profile_s"] for r in results), 4),
                **{key: first[key] for key in ("graph_scc_calls", "trim_calls") + SAME},
            }
            for key in SAME:
                if any(r[key] != first[key] for r in results):
                    raise SystemExit(f"{name}, {label}: runs disagree on {key}")
            print(name, label, cases[label], flush=True)
        for key in SAME:
            if len({case[key] for case in cases.values()}) > 1:
                raise SystemExit(f"{name}: sides disagree on {key}")
        record["cases"][name] = cases
    path = ROOT / "BENCH_profile_product.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("wrote", path.name)


if __name__ == "__main__":
    main(sys.argv[1:])
