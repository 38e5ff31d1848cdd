"""Self-tests of the benchmark, on its tiny inputs.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import random
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent, check=True,
    )
    return proc.stdout.splitlines()


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w["why"] for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = _bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(names)
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1]
             if not line.startswith("#")}
    assert table == {**dict(names), "failed_frac": "ratio"}
    assert not any(line.startswith("# absent") for line in lines)


def test_wrong_reference_is_a_failure_not_a_crash():
    expected = workloads.load_expected()
    expected["--delta 1e-7 powerfree 2 3 --cap 8"]["automaton_states"] += 1
    del expected["root 3 2 --n-max 15"]
    args = Namespace(workload="cubefree-bounds", seed=2, seconds=0.1, trace=1, tiny=True)
    result, lines = run.run(args, expected)
    fails = [line for line in lines if line.startswith("# FAIL")]
    assert not result["correct"] and result["failed"] == len(fails) > 0
    assert {line.split(": ")[1] for line in fails} == {
        "automaton_states 308 != expected 309", "no expected entry"}
    assert result["attempted"] > result["failed"]


def test_tracing_restores_the_library():
    import wordgrowth.cli
    import wordgrowth.fad
    import wordgrowth.powerfree

    before = (wordgrowth.powerfree.is_free, wordgrowth.cli.approximation_bounds,
              wordgrowth.fad.Antidictionary.__init__)
    args = Namespace(workload="tm-profile", seed=1, seconds=0.1, trace=1, tiny=True)
    run.run(args)
    after = (wordgrowth.powerfree.is_free, wordgrowth.cli.approximation_bounds,
             wordgrowth.fad.Antidictionary.__init__)
    assert before == after


def test_seeded_inputs_are_the_same_languages(tmp_path):
    from wordgrowth.automaton import parse_dfa
    from wordgrowth.fad import fad_automaton, parse_antidictionary
    from wordgrowth.growth import count_words

    text = (workloads.DATA / "tm1.dfa").read_text()
    reference = [count_words(parse_dfa(text), n) for n in range(12)]
    ad_text = (workloads.DATA / "tm1.ad").read_text()
    for seed in range(4):
        rng = random.Random(seed)
        shuffled = parse_dfa(workloads._rewrite_dfa(text, rng))
        assert [count_words(shuffled, n) for n in range(12)] == reference
        ad = parse_antidictionary(workloads._rewrite_ad(ad_text, rng))
        assert [count_words(fad_automaton(ad), n) for n in range(12)] == reference
