"""Time the index engine's float pass and exact continuation on Thue-Morse.

    python scripts/continuation_times.py [--runs N] LABEL=SRC [LABEL=SRC ...]

Each ``SRC`` is the ``src`` directory of a checkout (this one's is
``src``), so two commits are measured by one script.  For each of
levels 3 and 4 at delta = 1e-20, the certificate stream of the one
nontrivial component of ``fad_automaton(tm_antidictionary(level))`` is
read up to the first certificate of width at most 2 * delta.  The
record gives the float pass's time (``growth._float_vector``), the
continuation's time (from the second certificate to the last one read),
the number of certificates, the continuation steps (16 per certificate
after the second), the precision in bits in force at the last
certificate (replayed from the widths by the engine's stall rule) and a
hash of the stream.  Each case runs ``--runs`` times (default 3), each
in a fresh process, and keeps the best times.  The result goes to
``BENCH_engine_continuation.json`` at the repository root.
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
LEVELS = (3, 4)
DELTA = Fraction(1, 10**20)
# what every run of a level must agree on, on every side
SAME = ("certificates", "steps", "precision", "stream_sha256")


def precision(widths: list) -> int:
    """The precision of the last certificate: 96 bits, doubled after three
    checkpoints in a row that each narrow the width by less than 2 %."""
    prec, stall = 96, 0
    for prev, gap in zip(widths[1:], widths[2:-1]):
        stall = stall + 1 if gap > prev * Fraction(49, 50) else 0
        if stall == 3:
            prec, stall = prec * 2, 0
    return prec


def one_run(src: str, level: int) -> dict:
    """One level's stream, timed in this process."""
    sys.path.insert(0, src)
    from wordgrowth import growth
    from wordgrowth.automaton import graph_scc
    from wordgrowth.fad import fad_automaton, tm_antidictionary

    graph = growth.transition_graph(fad_automaton(tm_antidictionary(level)))
    dec = graph_scc(graph)
    (comp,) = growth._component_graphs(graph, [dec.members_of(c) for c in dec.nontrivial])
    float_vector = growth._float_vector
    float_s = []

    def timed_float_vector(*args, **kwargs):
        start = time.perf_counter()
        out = float_vector(*args, **kwargs)
        float_s.append(time.perf_counter() - start)
        return out

    growth._float_vector = timed_float_vector
    stream = []
    for iv in growth._certificates(comp):
        stream.append(iv)
        if len(stream) == 2:
            start = time.perf_counter()
        if iv.width <= 2 * DELTA:
            break
    continuation_s = time.perf_counter() - start
    return {
        "float_s": float_s[0],
        "continuation_s": continuation_s,
        "certificates": len(stream),
        "steps": 16 * (len(stream) - 2),
        "precision": precision([iv.width for iv in stream]),
        "stream_sha256": hashlib.sha256(repr(stream).encode()).hexdigest(),
        "states": len(comp),
        "edges": len(comp.indices),
    }


def main(argv: list) -> None:
    if argv[:1] == ["--one"]:
        print(json.dumps(one_run(argv[1], int(argv[2]))))
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
        "levels": {},
    }
    for level in LEVELS:
        cases = {}
        for label, src in sides.items():
            results = [
                json.loads(subprocess.run(
                    [sys.executable, __file__, "--one", str(Path(src).resolve()), str(level)],
                    check=True, capture_output=True, text=True,
                ).stdout)
                for _ in range(runs)
            ]
            first = results[0]
            cases[label] = {
                "best_float_s": round(min(r["float_s"] for r in results), 4),
                "best_continuation_s": round(min(r["continuation_s"] for r in results), 4),
                **{key: first[key] for key in ("states", "edges") + SAME},
            }
            for key in SAME:
                if any(r[key] != first[key] for r in results):
                    raise SystemExit(f"level {level}, {label}: runs disagree on {key}")
            print(level, label, cases[label], flush=True)
        for key in SAME:
            if len({case[key] for case in cases.values()}) > 1:
                raise SystemExit(f"level {level}: sides disagree on {key}")
        record["levels"][str(level)] = cases
    path = ROOT / "BENCH_engine_continuation.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("wrote", path.name)


if __name__ == "__main__":
    main(sys.argv[1:])
