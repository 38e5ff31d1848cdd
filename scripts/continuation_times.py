"""Time the index engine's float pass and exact continuation on Thue-Morse.

    python scripts/continuation_times.py [--runs N] [--timeout S] LABEL=SRC [LABEL=SRC ...]

Each ``SRC`` is the ``src`` directory of a checkout (this one's is
``src``), so two commits are measured by one script.  For each of
levels 3 to 6, at delta = 1e-20 and 1e-40, the certificate stream of
the one nontrivial component of ``fad_automaton(tm_antidictionary(level))``
is read up to the first certificate of width at most 2 * delta.  The
record gives the component's period p, the float pass's time
(``growth._float_vectors``, a batch of one), the continuation's time (from the second
certificate to the last one read), the number of checkpoints (the
certificates after the second), the continuation steps, the precision
in bits in force at the last certificate and a hash of the stream.
Steps and precision are replayed from the stream by the side's own
rule: a tree with ``growth.CONTINUATION_STEPS`` iterates A over whole
periods on a component with p > 1 (p steps per checkpoint, the
precision doubled after each window, the fewest periods that span 16
steps and the component's states, that narrows the width by less than
2 %); otherwise the continuation iterates A+I (16 steps per checkpoint,
doubled after three checkpoints in a row that each narrow it by less
than 2 %).  The
record also times ``asymptotic_profile`` of the level-6 automaton.

Each case runs ``--runs`` times (default 3), each in a fresh process
stopped after ``--timeout`` seconds (default 60), and keeps the best
times; a case that times out is recorded as such and not run again.
The result goes to ``BENCH_engine_period.json`` at the repository root.
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
LEVELS = (3, 4, 5, 6)
PLACES = (20, 40)
PROFILE_LEVEL = 6
# what every run of a stream case must agree on, on every side
SAME = ("certificates", "precision", "stream_sha256")


def replay(widths: list, p: int, n: int, periodic_engine: bool) -> tuple:
    """The continuation steps and the precision of the last certificate,
    from the widths of a stream of a component of n states, by the
    engine's rule: 96 bits at first, doubled after ``patience`` windows
    of ``window`` checkpoints in a row that each narrow the width by less
    than 2 %."""
    if periodic_engine and p > 1:
        every, window, patience = p, -(-max(16, n) // p), 1
    else:
        every, window, patience = 16, 1, 3
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


def one_stream(src: str, level: int, places: int) -> dict:
    """One level's stream, timed in this process."""
    # the A+I stream's precision can pass the 4,300 digits that repr allows
    sys.set_int_max_str_digits(0)
    sys.path.insert(0, src)
    from wordgrowth import automaton, growth
    from wordgrowth.fad import fad_automaton, tm_antidictionary

    dfa = fad_automaton(tm_antidictionary(level))
    graph = growth.transition_graph(dfa)
    dec = automaton.graph_scc(graph)
    (c,) = dec.nontrivial.tolist()
    (comp,) = growth._component_graphs(graph, [dec.members_of(c)])
    p = automaton.imprimitivity(dfa, dec.members_of(c).tolist())
    # a checkout from before the batched pass has the one-component _float_vector
    name = "_float_vectors" if hasattr(growth, "_float_vectors") else "_float_vector"
    float_vector = getattr(growth, name)
    float_s = []

    def timed_float_vector(*args, **kwargs):
        start = time.perf_counter()
        out = float_vector(*args, **kwargs)
        float_s.append(time.perf_counter() - start)
        return out

    setattr(growth, name, timed_float_vector)
    delta = Fraction(1, 10**places)
    stream = []
    for iv in growth._certificates(comp):
        stream.append(iv)
        if len(stream) == 2:
            start = time.perf_counter()
        if iv.width <= 2 * delta:
            break
    continuation_s = time.perf_counter() - start
    widths = [iv.width for iv in stream]
    steps, precision = replay(widths, p, len(comp), hasattr(growth, "CONTINUATION_STEPS"))
    return {
        "float_s": float_s[0],
        "continuation_s": continuation_s,
        "period": p,
        "certificates": len(stream),
        "checkpoints": len(stream) - 2,
        "steps": steps,
        "precision": precision,
        "stream_sha256": hashlib.sha256(repr(stream).encode()).hexdigest(),
        "states": len(comp),
        "edges": len(comp.indices),
    }


def one_profile(src: str, level: int) -> dict:
    """``asymptotic_profile`` of one level's automaton, timed in this process."""
    sys.path.insert(0, src)
    from wordgrowth.growth import asymptotic_profile
    from wordgrowth.fad import fad_automaton, tm_antidictionary

    dfa = fad_automaton(tm_antidictionary(level))
    start = time.perf_counter()
    report = asymptotic_profile(dfa)
    return {
        "profile_s": time.perf_counter() - start,
        "residue_count": report.residue_count,
        "report_sha256": hashlib.sha256(report.to_json_text().encode()).hexdigest(),
    }


def fresh_runs(args: list, runs: int, timeout: float) -> list:
    """The JSON results of up to ``runs`` fresh processes of this script,
    or None when the first one does not finish within ``timeout`` s."""
    results = []
    for _ in range(runs):
        try:
            done = subprocess.run(
                [sys.executable, __file__, *args],
                check=True, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None
        results.append(json.loads(done.stdout))
    return results


def summarise(results: list, timeout: float, times: tuple, same: tuple, case: str) -> dict:
    """Best times and the fields every run agrees on, or the timeout."""
    if results is None:
        return {"timed_out_s": timeout}
    first = results[0]
    for key in same:
        if any(r[key] != first[key] for r in results):
            raise SystemExit(f"{case}: runs disagree on {key}")
    return {
        **{f"best_{t}": round(min(r[t] for r in results), 4) for t in times},
        **{key: value for key, value in first.items() if key not in times},
    }


def main(argv: list) -> None:
    if argv[:1] == ["--one"]:
        print(json.dumps(one_stream(argv[1], int(argv[2]), int(argv[3]))))
        return
    if argv[:1] == ["--profile"]:
        print(json.dumps(one_profile(argv[1], int(argv[2]))))
        return
    runs, timeout = 3, 60.0
    while argv[:1] in (["--runs"], ["--timeout"]):
        if argv[0] == "--runs":
            runs = int(argv[1])
        else:
            timeout = float(argv[1])
        argv = argv[2:]
    if not argv or not all("=" in a for a in argv):
        raise SystemExit(__doc__)
    sides = {label: str(Path(src).resolve()) for label, src in (a.split("=", 1) for a in argv)}
    import numpy

    record = {
        "deltas": [f"1e-{places}" for places in PLACES],
        "machine": f"{cpu_model()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "runs_per_case": runs,
        "timeout_s": timeout,
        "streams": {},
        "profile": {},
    }
    for level in LEVELS:
        for places in PLACES:
            case = f"level {level}, delta 1e-{places}"
            cases = {}
            for label, src in sides.items():
                results = fresh_runs(["--one", src, str(level), str(places)], runs, timeout)
                cases[label] = summarise(
                    results, timeout, ("float_s", "continuation_s"), SAME, f"{case}, {label}"
                )
                print(case, label, cases[label], flush=True)
            record["streams"][f"{level}/1e-{places}"] = cases
    case = f"profile, level {PROFILE_LEVEL}"
    for label, src in sides.items():
        results = fresh_runs(["--profile", src, str(PROFILE_LEVEL)], runs, timeout)
        record["profile"][label] = summarise(
            results, timeout, ("profile_s",), ("report_sha256",), f"{case}, {label}"
        )
        print(case, label, record["profile"][label], flush=True)
    path = ROOT / "BENCH_engine_period.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("wrote", path.name)


if __name__ == "__main__":
    main(sys.argv[1:])
