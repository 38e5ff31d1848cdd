"""The timing script's runner: round order, agreement, summaries, and
fresh-process runs of the stages, profile and engine modes."""

import hashlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from wordgrowth import growth
from wordgrowth.automaton import component_graphs, graph_scc, transition_graph
from wordgrowth.fad import fad_automaton, tm_antidictionary
from wordgrowth.growth import asymptotic_profile
from wordgrowth.powerfree import approximation_bounds
from wordgrowth.words import ExponentBound

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("timings", ROOT / "scripts" / "timings.py")
timings = importlib.util.module_from_spec(spec)
spec.loader.exec_module(timings)


def test_rounds_rotate_the_first_side():
    assert timings.rounds(["a", "b"], 4) == [["a", "b"], ["b", "a"], ["a", "b"], ["b", "a"]]
    order = timings.rounds(["a", "b", "c"], 6)
    assert order[:3] == [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]]
    assert [o[0] for o in order].count("c") == 2
    assert timings.rounds(["only"], 3) == [["only"]] * 3


def test_summarise_raises_when_runs_disagree():
    runs = [{"times": {"t": 1.0}, "hash": "x"}, {"times": {"t": 2.0}, "hash": "y"}]
    with pytest.raises(ValueError, match="hash"):
        timings.summarise(runs, ("hash",))
    # a key that one run lacks is a disagreement too
    with pytest.raises(ValueError, match="size"):
        timings.summarise([{"times": {}, "size": 3}, {"times": {}}], ("size",))


def test_summarise_gives_best_quartiles_median_and_every_run():
    runs = [{"times": {"t": t}, "hash": "x", "rss": t * 10} for t in (4.0, 1.0, 3.0, 2.0)]
    summary = timings.summarise(runs, ("hash",))
    assert summary == {
        "hash": "x",
        "times_s": {"t": {
            "best": 1.0, "q1": 1.75, "median": 2.5, "q3": 3.25, "runs": [4.0, 1.0, 3.0, 2.0],
        }},
        "rss": [40.0, 10.0, 30.0, 20.0],
    }
    one = timings.summarise(runs[:1], ("hash",))["times_s"]["t"]
    assert one == {"best": 4.0, "q1": 4.0, "median": 4.0, "q3": 4.0, "runs": [4.0]}


def test_stages_run_the_real_bounds_in_a_fresh_process():
    record = timings.measure("stages", {"here": str(ROOT / "src")}, ["2,3,8"], 1, 120)
    assert record["first_side_by_round"] == ["here"]
    assert record["as_limit_mib"] is None
    got = record["cases"]["2,3,8"]["here"]
    # cap 8 admits no lower bound: lower_bound raises, and a stage that
    # raises has no time of its own
    assert set(got["times_s"]) == {
        "minimal_powers", "quotient", "components", "index", "lift", "bounds",
    }
    bounds = approximation_bounds(2, ExponentBound.parse("3"), 8, delta=1e-7)
    assert bounds.lower is None
    assert got["states"] == bounds.automaton_states
    assert got["upper"] == [str(bounds.upper.lo), str(bounds.upper.hi)]
    assert got["lower"] == (None if bounds.lower is None else str(bounds.lower))


def test_stages_run_under_an_address_space_limit():
    record = timings.measure("stages", {"here": str(ROOT / "src")}, ["2,3,8"], 1, 120, 1024)
    assert record["as_limit_mib"] == 1024
    got = record["cases"]["2,3,8"]["here"]
    bounds = approximation_bounds(2, ExponentBound.parse("3"), 8, delta=1e-7)
    assert got["upper"] == [str(bounds.upper.lo), str(bounds.upper.hi)]
    # the limit holds in the child: 32 MiB does not even map numpy
    with pytest.raises(SystemExit, match="stages 2,3,8 on .* failed"):
        timings.measure("stages", {"here": str(ROOT / "src")}, ["2,3,8"], 1, 120, 32)


def test_profile_run_records_streams_and_float_passes_per_run():
    record = timings.measure("profile", {"here": str(ROOT / "src")}, ["tm2.dfa"], 2, 120)
    got = record["cases"]["tm2.dfa"]["here"]
    report = asymptotic_profile(timings.profile_automaton("tm2.dfa"), timings.PROFILE_DELTA)
    assert got["report_sha256"] == hashlib.sha256(repr(report).encode()).hexdigest()
    assert (got["residue_count"], got["graph_scc_calls"]) == (8, 2)
    # one stream and one float pass, for the automaton's one component:
    # every product component lifts it
    assert got["streams"] == [1, 1]
    assert got["float_passes"] == [1, 1]


def test_stages_time_every_thue_morse_trie_in_a_fresh_process():
    record = timings.measure("stages", {"here": str(ROOT / "src")}, ["tm"], 1, 120)
    times = record["cases"]["tm"]["here"]["times_s"]
    assert set(times) == {f"trie_{level}" for level in range(-1, 6)}
    assert all(t["best"] > 0 for t in times.values())


def test_engine_run_reads_the_stream_read_in_process():
    record = timings.measure("engine", {"here": str(ROOT / "src")}, ["3/1e-20"], 1, 120)
    got = record["cases"]["3/1e-20"]["here"]
    graph = transition_graph(fad_automaton(tm_antidictionary(3)))
    dec = graph_scc(graph)
    (c,) = dec.nontrivial.tolist()
    (comp,) = component_graphs(graph, [dec.members_of(c)])
    stream = []
    for iv in growth._certificates(comp):
        stream.append(iv)
        if iv.width <= Fraction(2, 10**20):
            break
    assert got["stream_sha256"] == hashlib.sha256(repr(stream).encode()).hexdigest()
    assert (got["certificates"], got["states"]) == (len(stream), len(comp))
    assert set(got["times_s"]) == {"float", "continuation"}
