"""The benchmark's workloads: query lists, seeded inputs and answer checks.

Every query is a ``wordgrowth`` command line.  Each workload stresses a
different stage of the pipeline:

* ``cubefree-bounds`` -- binary cube-free bounds with the lower bound:
  the only path that builds the full automaton and its strong
  components, next to the largest letter-symmetry quotient;
* ``squarefree-roots`` -- word combinatorics (root search and the
  minimality test) for ternary squares, plus the root tables and period
  scans of ``circular``; no full automaton is built;
* ``tm-profile`` -- per-residue growth profiles of Thue-Morse
  automata: many small periodic components and the exact-continuation
  loop of the index engine, with no power-free work.

Every workload also runs the same small ``PROBES``, one per query
family, so that each metric exists and is non-zero on every workload;
on a workload that does not stress a family, the probes keep its share
of the time small.  The seed orders the queries and, for file inputs,
renumbers states, permutes letters and shuffles lines.  No certified
answer depends on the seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# subcommand -> end-to-end metric that sums its queries' time
FAMILY = {
    "powerfree": "powerfree_s",
    "root": "circular_s",
    "scan": "circular_s",
    "dfa-report": "profile_s",
    "fad": "profile_s",
    "tm-approx": None,
}


@dataclass(frozen=True)
class Query:
    """One command line; ``key`` names it in ``expected.json``.  Data
    files appear by name and are replaced by seeded copies at run time.
    A query runs ``reps`` times per pass."""

    key: str
    reps: int = 1

    @property
    def argv(self) -> list:
        return self.key.split()

    @property
    def command(self) -> str:
        return next(a for a in self.argv if a in FAMILY)

    @property
    def family(self):
        return FAMILY[self.command]


# short, so three runs per pass give their fastest run enough samples
PROBES = (
    Query("--delta 1e-7 powerfree 2 3 --cap 12", reps=3),
    Query("root 3 2 --n-max 15", reps=3),
    Query("scan 2 5/2 --p-max 22", reps=3),
    Query("dfa-report tm1.dfa", reps=3),
    Query("fad tm1.ad", reps=3),
)

WORKLOADS = {
    "cubefree-bounds": {
        "why": "Binary cube-free bounds with the lower bound at caps 15 and 17: the only "
               "path through the full automaton and its SCCs, and the largest quotient.",
        "full": (
            Query("--delta 1e-7 powerfree 2 3 --cap 15"),
            Query("--delta 1e-7 powerfree 2 3 --cap 17"),
        ),
        "tiny": (
            Query("--delta 1e-7 powerfree 2 3 --cap 8"),
            Query("--delta 1e-7 powerfree 2 3 --cap 9"),
        ),
    },
    "squarefree-roots": {
        "why": "Ternary square-free minimal powers to cap 24, the root table and two "
               "period scans: word combinatorics and circular, with no full automaton.",
        "full": (
            Query("powerfree 3 2 --cap 24 --no-lower"),
            Query("root 3 2 --n-max 19"),
            Query("scan 2 7/3 --p-max 30"),
            Query("scan 2 5/2 --p-max 30"),
        ),
        "tiny": (
            Query("powerfree 3 2 --cap 12 --no-lower"),
            Query("root 3 2 --n-max 8"),
            Query("scan 2 7/3 --p-max 12"),
            Query("scan 2 5/2 --p-max 12"),
        ),
    },
    "tm-profile": {
        "why": "Growth profiles of Thue-Morse automata: many small periodic components, "
               "scc per residue, and the exact-continuation loop; no power-free work.",
        "full": (
            Query("dfa-report tm2.dfa"),
            Query("fad tm2.ad"),
            Query("--delta 1e-20 tm-approx 3"),
            Query("--delta 1e-20 tm-approx 4"),
        ),
        "tiny": (
            Query("dfa-report tm1.dfa"),
            Query("fad tm0.ad"),
            Query("--delta 1e-20 tm-approx 1"),
            Query("--delta 1e-20 tm-approx 2"),
        ),
    },
}


def prepare(workload: str, seed: int, tiny: bool, workdir: Path) -> list:
    """Seeded inputs: the ordered (query, argv) list, with seeded copies
    of the data files written into ``workdir``."""
    rng = random.Random(seed)
    queries = list(WORKLOADS[workload]["tiny" if tiny else "full"]) + list(PROBES)
    rng.shuffle(queries)
    files = {}
    for name in sorted({a for q in queries for a in q.argv if (DATA / a).is_file()}):
        text = (DATA / name).read_text(encoding="utf-8")
        rewrite = _rewrite_dfa if name.endswith(".dfa") else _rewrite_ad
        files[name] = workdir / name
        files[name].write_text(rewrite(text, rng), encoding="utf-8")
    return [(q, [str(files.get(a, a)) for a in q.argv]) for q in queries]


def _content_lines(text: str) -> list:
    lines = (raw.split("#", 1)[0].split() for raw in text.splitlines())
    return [fields for fields in lines if fields]


def _rewrite_dfa(text: str, rng: random.Random) -> str:
    """Same automaton up to state numbering and letter names."""
    (_, n, k, initial), *body = _content_lines(text)
    n, k = int(n), int(k)
    state = list(range(n))
    letter = list(range(k))
    rng.shuffle(state)
    rng.shuffle(letter)
    accept = [f for fields in body if fields[0] == "accept" for f in fields[1:]]
    edges = [
        f"{state[int(q)]} {letter[int(x)]} {state[int(t)]}"
        for q, x, t in (fields for fields in body if fields[0] != "accept")
    ]
    rng.shuffle(edges)
    head = [f"dfa {n} {k} {state[int(initial)]}",
            "accept " + " ".join(str(q) for q in sorted(state[int(a)] for a in accept))]
    return "\n".join(head + edges) + "\n"


def _rewrite_ad(text: str, rng: random.Random) -> str:
    """Same antidictionary up to letter names and line order."""
    (_, k), *words = _content_lines(text)
    letters = [chr(ord("a") + i) for i in range(int(k))]
    renamed = letters[:]
    rng.shuffle(renamed)
    table = str.maketrans("".join(letters), "".join(renamed))
    lines = [w.translate(table) for (w,) in words]
    rng.shuffle(lines)
    return "\n".join([f"ad {k}"] + lines) + "\n"


def load_expected(path: Path = EXPECTED) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# answer checks

# known growth rates, as (below, above) the true value
RATES = {
    (2, "3"): (Decimal("1.4575772869"), Decimal("1.4575772870")),
    (3, "2"): (Decimal("1.3017597"), Decimal("1.3017598")),
}

# the acceptance suite's tables (criteria 4 and 5)
ROOT_TABLE = {1: 3, **{n: 6 for n in (2, 3, 4, 6, 8, 11, 12, 13, 15, 16, 21)},
              **{n: 0 for n in (5, 7, 9, 10, 14, 17)}}
ROOT_AT_LEAST = {18: 12, 19: 12, 20: 12}
SCAN_TABLE = {  # (k, beta) -> (checked up to p, forbidden periods up to there)
    (2, "5/2"): (18, {5, 9, 11, 17, 18}),
    (2, "7/3"): (16, set(range(1, 17)) - {1, 2, 3, 4, 6, 8, 12, 16}),
}

PLACES = Decimal("1e-12")  # decimals are printed to 12 places, rounded outward


def tm_rate(level: int) -> Decimal:
    """Growth rate of the level-i Thue-Morse approximation, phi^(1/2^(i+1))."""
    ctx = Context(prec=50)
    rate = ctx.divide(ctx.add(1, ctx.sqrt(Decimal(5))), 2)
    for _ in range(level + 1):
        rate = ctx.sqrt(rate)
    return rate


def check(query: Query, out: str, expected: dict) -> list:
    """Problems with one answer, compared to independent references and
    to the sizes recorded in ``expected``; empty when it is correct."""
    ref = expected.get(query.key)
    if ref is None:
        return [f"{query.key}: no expected entry"]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"{query.key}: output is not JSON ({exc})"]
    argv = query.argv
    delta = Fraction(argv[argv.index("--delta") + 1]) if "--delta" in argv else Fraction(1, 10**6)
    slack = 2 * Decimal(delta.numerator) / Decimal(delta.denominator) + 2 * PLACES
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(f"{query.key}: {what}")

    def interval(lo, hi, what, target=None):
        lo, hi = Decimal(lo), Decimal(hi)
        need(hi - lo <= slack, f"{what} width {hi - lo} exceeds 2*delta")
        if target is not None:
            need(lo <= target <= hi, f"{what} [{lo}, {hi}] misses {target:.15f}")

    def sizes(*names):
        for name in names:
            need(doc.get(name) == ref[name], f"{name} {doc.get(name)} != expected {ref[name]}")

    command = query.command
    if command == "powerfree":
        below, above = RATES[(doc["k"], doc["beta"])]
        interval(doc["upper"]["lo"], doc["upper"]["hi"], "upper")
        need(Decimal(doc["upper"]["hi"]) >= below, "upper.hi is below the known growth rate")
        need((doc["lower"] is not None) == ref["has_lower"], f"lower is {doc['lower']}")
        if doc["lower"] is not None:
            need(Decimal(doc["lower"]) <= above, "lower is above the known growth rate")
        sizes("antidictionary_size", "automaton_states")
    elif command == "root":
        counts = {row["n"]: row["count"] for row in doc}
        for n, count in counts.items():
            need(count == ROOT_TABLE.get(n, count), f"n={n}: {count} != table {ROOT_TABLE.get(n)}")
            need(count >= ROOT_AT_LEAST.get(n, 0), f"n={n}: {count} below table minimum")
        need([counts[n] for n in sorted(counts)] == ref["counts"], "counts differ from expected")
    elif command == "scan":
        forbidden = set(doc["forbidden"])
        upto, table = SCAN_TABLE[(doc["k"], doc["beta"])]
        need({p for p in forbidden if p <= upto} == {p for p in table if p <= doc["p_max"]},
             "forbidden periods differ from the acceptance table")
        need(sorted(forbidden) == ref["forbidden"], "forbidden periods differ from expected")
    else:
        level = int(re.search(r"tm(?:-approx )?(\d+)", query.key).group(1))
        target = tm_rate(level)
        if command == "tm-approx":
            interval(doc["rate"]["lo"], doc["rate"]["hi"], "rate", target)
            sizes("forbidden_words", "automaton_states")
        else:
            need(doc["classification"]["tag"] == "Exponential", "not classified Exponential")
            interval(doc["gr"]["lo"], doc["gr"]["hi"], "gr", target)
            for row in doc["per_residue"]:
                interval(row["alpha_lo"], row["alpha_hi"], f"residue {row['residue']} alpha")
            sizes("residue_count", *(("forbidden_words", "automaton_states")
                                     if command == "fad" else ()))
    return problems
