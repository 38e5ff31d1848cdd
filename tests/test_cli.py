"""End-to-end checks of the command-line interface."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import builders
import wordgrowth
from oracles import free_roots
from wordgrowth import circular, cli, growth, words
from wordgrowth.automaton import DfaFormatError, format_dfa, parse_dfa
from wordgrowth.fad import FailureTrie, SubsetLimitError, TrieSizeError
from wordgrowth.cli import main

PHI_AD = "ad 2\naaa\nbbb\n"
PINNED = Path(__file__).parent / "pinned"
DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def phi_dfa_path(tmp_path):
    path = tmp_path / "phi.dfa"
    path.write_text(format_dfa(builders.phi_dfa()))
    return str(path)


@pytest.fixture()
def phi_ad_path(tmp_path):
    path = tmp_path / "phi.ad"
    path.write_text(PHI_AD)
    return str(path)


def run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


# ---------------------------------------------------------------------------
# report commands


def test_dfa_report_text(runner, phi_dfa_path):
    out = run(runner, ["dfa-report", phi_dfa_path])
    assert "Exponential" in out
    assert "1.618033988749" in out
    assert "NonOscillating" in out


def test_dfa_report_json(runner, phi_dfa_path):
    out = run(runner, ["--format", "json", "dfa-report", phi_dfa_path])
    doc = json.loads(out)
    assert doc["classification"]["tag"] == "Exponential"
    assert doc["pd"] == 0
    phi = (1 + 5**0.5) / 2
    assert float(doc["gr"]["lo"]) <= phi <= float(doc["gr"]["hi"])


def test_dfa_report_of_an_automaton_with_no_accepting_state(runner, tmp_path):
    path = tmp_path / "none.dfa"
    path.write_text("dfa 2 2 0\n0 0 1\n1 1 0\n")
    zero = "0.000000000000"
    assert run(runner, ["dfa-report", str(path)]) == (
        "class        Finite\n"
        f"growth rate  [{zero}, {zero}]\n"
        "poly index   0\n"
        "residues     1\n"
        f"  n = 0 (mod 1): alpha in [{zero}, {zero}], poly degree 0\n"
        "oscillation  NonOscillating\n"
    )
    assert json.loads(run(runner, ["--format", "json", "dfa-report", str(path)])) == {
        "classification": {"tag": "Finite", "degree": None},
        "gr": {"lo": zero, "hi": zero},
        "pd": 0,
        "residue_count": 1,
        "per_residue": [{"residue": 0, "alpha_lo": zero, "alpha_hi": zero, "m": 0}],
        "oscillation": "NonOscillating",
        "delta": "1/1000000",
    }


def test_dfa_report_rejects_bad_file(runner, tmp_path):
    bad = tmp_path / "bad.dfa"
    bad.write_text("dfa 2 2 0\naccept 5\n")
    result = runner.invoke(main, ["dfa-report", str(bad)])
    assert result.exit_code == 1
    assert "line 2" in result.output


@pytest.mark.parametrize("args", [
    ["dfa-report", "PATH"],
    ["fad", str(DATA / "tm1.ad")],
    ["tm-approx", "2"],
    ["extendable", "PATH"],
    ["powerfree", "2", "3", "--cap", "6"],
    ["asymptotic", "5", "2"],
], ids=lambda a: a[0])
def test_dfa_report_rejects_csv(runner, phi_dfa_path, args):
    args = [phi_dfa_path if a == "PATH" else a for a in args]
    result = runner.invoke(main, ["--format", "csv", *args])
    assert result.exit_code == 1
    assert result.output == "Error: csv output is not defined for this command\n"


def test_fad_report(runner, phi_ad_path):
    out = run(runner, ["fad", phi_ad_path])
    assert "alphabet     2" in out
    assert "forbidden    2 words" in out
    assert "1.618033988749" in out
    doc = json.loads(run(runner, ["--format", "json", "fad", phi_ad_path]))
    assert doc["alphabet"] == 2
    assert doc["forbidden_words"] == 2
    assert doc["automaton_states"] == 5


def test_tm_approx_levels(runner):
    out = run(runner, ["tm-approx", "--", "-1"])
    assert "forbidden    2 words" in out
    doc = json.loads(run(runner, ["--format", "json", "tm-approx", "1"]))
    assert doc["forbidden_words"] == 10
    assert float(doc["rate"]["lo"]) <= float(doc["rate"]["hi"])
    result = runner.invoke(main, ["tm-approx", "--", "-3"])
    assert result.exit_code == 1


TM_APPROX_JSON = {
    3: '{\n  "level": 3,\n  "forbidden_words": 18,\n  "automaton_states": 127,\n  "rate": {\n'
       '    "lo": "1.030532582573",\n    "hi": "1.030532582574"\n  }\n}\n',
    4: '{\n  "level": 4,\n  "forbidden_words": 22,\n  "automaton_states": 255,\n  "rate": {\n'
       '    "lo": "1.015151507201",\n    "hi": "1.015151507202"\n  }\n}\n',
}


@pytest.mark.parametrize("level", sorted(TM_APPROX_JSON))
def test_tm_approx_json_is_pinned(runner, level):
    # at delta = 1e-20 the exact continuation certifies these rates
    args = ["--format", "json", "--delta", "1e-20", "tm-approx", str(level)]
    assert run(runner, args) == TM_APPROX_JSON[level]


@pytest.mark.parametrize("level", [5, 6])
def test_tm_approx_certifies_periodic_levels(runner, level):
    # the level-i component has period 2^(i+1) and the rate phi^(1/2^(i+1));
    # phi is the positive root of x^2 - x - 1
    args = ["--format", "json", "--delta", "1e-20", "tm-approx", str(level)]
    rate = json.loads(run(runner, args))["rate"]
    lo, hi = (Fraction(rate[end]) ** 2 ** (level + 1) for end in ("lo", "hi"))
    assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1
    assert Fraction(rate["hi"]) - Fraction(rate["lo"]) == Fraction(1, 10**12)


def test_index_budget_error_is_a_message(runner, monkeypatch):
    # Thue-Morse level 3 needs 160 exact steps to reach 2e-20
    monkeypatch.setattr(growth, "CONTINUATION_STEPS", 64)
    result = runner.invoke(main, ["--delta", "1e-20", "tm-approx", "3"])
    assert result.exit_code == 1
    assert result.output.startswith("Error: the certified index of a 64-state component")
    assert "after 64 exact iteration steps" in result.output
    assert result.output.count("\n") == 1 and "Traceback" not in result.output


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, path", [
    ("dfa-report", "tm1.dfa"), ("dfa-report", "tm2.dfa"), ("fad", "tm1.ad"), ("fad", "tm2.ad"),
])
def test_profile_output_is_pinned(runner, command, path, fmt):
    # the bytes the per-slice loop printed, before the slices were read
    # off one decomposition of the counter product
    out = run(runner, ["--format", fmt, command, str(DATA / path)])
    stem = path.split(".")[0]
    assert out == (PINNED / f"{command}-{stem}.{fmt}").read_text()


@pytest.mark.parametrize("command, path", [("dfa-report", "tm1.dfa"), ("fad", "tm1.ad")])
def test_profile_size_error_is_a_message(runner, monkeypatch, command, path):
    monkeypatch.setattr(growth._CounterProduct, "PAIR_LIMIT", 10)
    result = runner.invoke(main, [command, str(DATA / path)])
    assert result.exit_code == 1
    assert result.output.startswith("Error: the growth profile needs")
    assert "length mod 4 " in result.output and "more than 10 " in result.output
    assert "Traceback" not in result.output


# ---------------------------------------------------------------------------
# extendable parts


def test_extendable_report(runner, phi_dfa_path):
    out = run(runner, ["extendable", phi_dfa_path, "--side", "two_sided"])
    assert "side         two_sided" in out
    assert "5 states" in out


def test_extendable_dump_reparses(runner, phi_dfa_path):
    out = run(runner, ["extendable", phi_dfa_path, "--dump"])
    dfa = parse_dfa(out)
    assert dfa.state_count == 5


@pytest.mark.parametrize("fmt", ["text", "json", "dump"])
@pytest.mark.parametrize("side", ["right", "two_sided"])
@pytest.mark.parametrize("stem", ["tm2", "phi"])
def test_extendable_output_is_pinned(runner, phi_dfa_path, stem, side, fmt):
    path = str(DATA / "tm2.dfa") if stem == "tm2" else phi_dfa_path
    args = ["extendable", path, "--side", side]
    if fmt == "json":
        args = ["--format", "json", *args]
    elif fmt == "dump":
        args.append("--dump")
    assert run(runner, args) == (PINNED / f"extendable-{stem}-{side}.{fmt}").read_text()


def test_two_sided_subset_limit_is_a_quick_message(tmp_path):
    # 24 states would reach 2^24 - 1 subsets; the construction stops at
    # SUBSET_LIMIT, so the process ends soon and small
    path = tmp_path / "blowup.dfa"
    path.write_text(format_dfa(builders.subset_blowup_dfa(24)))
    src = os.path.dirname(os.path.dirname(wordgrowth.__file__))
    env_path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # the child prints its own peak: VmHWM counts from its exec, whereas
    # ru_maxrss would include this process's pages at the fork
    code = (
        "import sys\n"
        "from wordgrowth.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "finally:\n"
        "    print([line for line in open('/proc/self/status') if 'VmHWM' in line][0])\n"
    )
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code, "extendable", str(path), "--side", "two_sided"],
        env=dict(os.environ, PYTHONPATH=env_path),
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - start
    assert out.returncode == 1
    assert out.stderr == (
        "Error: the two-sided extendable part needs more than 65536 subsets "
        "of states, the limit of its subset construction\n"
    )
    assert seconds < 2
    name, peak_kib, unit = out.stdout.split()
    assert name == "VmHWM:" and unit == "kB"
    assert int(peak_kib) < 100 * 1024  # about 53 MiB here


def test_extendable_rejects_non_factorial(runner, tmp_path):
    path = tmp_path / "even.dfa"
    path.write_text(format_dfa(builders.even_only_dfa()))
    result = runner.invoke(main, ["extendable", str(path)])
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# staircase language


def test_intermediate_count(runner):
    assert run(runner, ["intermediate", "4", "--k", "2"]).strip() == "14"
    out = run(runner, ["--format", "csv", "intermediate", "4", "--k", "2"])
    assert out.splitlines() == ["n,count", "4,14"]


def test_intermediate_count_of_long_words(runner):
    # n = 2000 is past the interpreter's recursion limit: the count must not recurse per letter
    out = run(runner, ["intermediate", "2000", "--k", "2"]).strip()
    assert int(out) > 0
    assert run(runner, ["intermediate", "2000", "--k", "1"]).strip() == "1"


def test_intermediate_membership(runner):
    assert run(runner, ["intermediate", "0", "--word", "abaa"]).strip() == "True"
    assert run(runner, ["intermediate", "0", "--word", "aaba"]).strip() == "False"
    out = run(runner, ["--format", "csv", "intermediate", "0", "--word", "abaa"])
    assert out.splitlines() == ["word,member", "abaa,True"]


# ---------------------------------------------------------------------------
# power-free bounds


def test_powerfree_text(runner):
    out = run(runner, ["powerfree", "2", "3", "--cap", "6"])
    assert "upper" in out and "lower" in out
    assert out.rstrip().splitlines()[-1].startswith("wall")


def test_powerfree_json(runner):
    out = run(runner, ["--format", "json", "powerfree", "2", "3", "--cap", "6"])
    doc = json.loads(out)
    assert doc["k"] == 2 and doc["beta"] == "3"
    assert "wall_seconds" in doc
    assert "unique_component" in doc
    assert float(doc["upper"]["lo"]) <= float(doc["upper"]["hi"])


def test_powerfree_finite_is_not_an_error(runner):
    out = run(runner, ["powerfree", "2", "2", "--cap", "4"])
    assert "finite" in out
    doc = json.loads(run(runner, ["--format", "json", "powerfree", "2", "2", "--cap", "4"]))
    assert doc["finite"] is True


def test_powerfree_rejects_bad_arguments(runner):
    assert runner.invoke(main, ["powerfree", "2", "1", "--cap", "4"]).exit_code == 1
    assert runner.invoke(main, ["--delta", "0", "powerfree", "2", "3", "--cap", "4"]).exit_code == 1
    assert runner.invoke(main, ["--delta", "nope", "powerfree", "2", "3", "--cap", "4"]).exit_code == 1


@pytest.mark.parametrize(
    "args",
    [
        ["powerfree", "2", "3/0", "--cap", "3"],
        ["root", "3", "3/0", "--n-max", "3"],
        ["scan", "2", "3/0", "--p-max", "5"],
    ],
)
def test_zero_denominator_is_a_clean_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "Error: bad exponent token '3/0'" in result.output


def test_signed_exponent_is_a_clean_error(runner):
    result = runner.invoke(main, ["powerfree", "2", "--cap", "3", "--", "-3/-2"])
    assert result.exit_code == 1
    assert "Error: bad exponent token '-3/-2'" in result.output


def test_cli_import_loads_no_scipy():
    # the index engine runs on numpy alone
    src = os.path.dirname(os.path.dirname(wordgrowth.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, wordgrowth.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"


# one query of each command
EVERY_COMMAND = (
    ["dfa-report", str(DATA / "tm2.dfa")],
    ["fad", str(DATA / "tm2.ad")],
    ["tm-approx", "3"],
    ["extendable", str(DATA / "tm1.dfa"), "--side", "two_sided"],
    ["intermediate", "30", "--k", "2"],
    ["powerfree", "2", "3", "--cap", "12"],
    ["root", "3", "2", "--n-max", "10"],
    ["circular", "--n", "8"],
    ["scan", "2", "5/2", "--p-max", "16"],
    ["asymptotic", "2", "3"],
)


def test_queries_load_no_numpy_module_beyond_the_import():
    # a numpy module that only a query loads (np.unique loads numpy.ma)
    # raises the peak RSS of the process that runs it
    assert sorted(q[0] for q in EVERY_COMMAND) == sorted(main.commands)
    src = os.path.dirname(os.path.dirname(wordgrowth.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import contextlib, io, json, sys\n"
        "import wordgrowth.cli\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.split('.')[0] == 'numpy'}\n"
        "before = loaded()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        wordgrowth.cli.main(['--format', 'json', *argv], standalone_mode=False)\n"
        "print(sorted(loaded() - before))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(EVERY_COMMAND)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"


# the one library function each command hands its work to
COMMAND_CALLS = {
    "dfa-report": "asymptotic_profile",
    "fad": "fad_automaton",
    "tm-approx": "tm_antidictionary",
    "extendable": "extendable_part",
    "intermediate": "intermediate_count",
    "powerfree": "approximation_bounds",
    "root": "root_table",
    "circular": "enumerate_circular_square_free",
    "scan": "forbidden_period_scan",
    "asymptotic": "asymptotic_formula",
}

LIBRARY_ERRORS = [
    ValueError("x"),
    DfaFormatError(3, "x"),
    words.BudgetExceededError(7, 5),
    TrieSizeError(9, 8),
    SubsetLimitError(4),
    growth.IndexBudgetError(64, Fraction(1, 10**6), 64),
    growth.ProfileSizeError(2, 1),
    MemoryError(),
]


@pytest.mark.parametrize("exc", LIBRARY_ERRORS, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda a: a[0])
def test_every_library_error_is_one_line(runner, monkeypatch, argv, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, COMMAND_CALLS[argv[0]], fail)
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    assert result.output == f"Error: {str(exc) or 'out of memory'}\n"
    assert "Traceback" not in result.output


def test_powerfree_budget_failure(runner):
    result = runner.invoke(main, ["--budget", "10", "powerfree", "3", "2", "--cap", "24"])
    assert result.exit_code == 1
    assert "budget of 10 candidate roots exhausted at period 24" in result.output


def test_powerfree_budget_boundary_is_the_depth_first_count(runner):
    # the bounds search visits exactly the free words the depth-first walk does
    bound = words.ExponentBound.parse("2")
    n = sum(1 for _ in free_roots(3, bound, range(1, 9), canonical=True))
    args = ["powerfree", "3", "2", "--cap", "8"]
    docs = [json.loads(run(runner, ["--format", "json", *budget, *args]))
            for budget in ([], ["--budget", str(n)])]
    for doc in docs:
        doc.pop("wall_seconds")
    assert docs[0] == docs[1]
    result = runner.invoke(main, ["--budget", str(n - 1), *args])
    assert result.exit_code == 1
    assert f"budget of {n - 1} candidate roots exhausted at period 8" in result.output


def test_powerfree_trie_limit_failure(runner, monkeypatch):
    # node ids are int32: a trie past the limit is a clear error, not a wrap
    args = ["powerfree", "3", "2", "--cap", "8"]
    arrays, _ = words.minimal_word_arrays(
        3, words.ExponentBound(2), range(1, 9), canonical=True
    )
    nodes = len(FailureTrie.letter_canonical(3, arrays.values()).terminal)
    monkeypatch.setattr(FailureTrie, "NODE_LIMIT", nodes)
    run(runner, args)
    monkeypatch.setattr(FailureTrie, "NODE_LIMIT", nodes - 1)
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output == (
        f"Error: the letter-canonical trie needs {nodes} nodes, above the limit "
        f"of {nodes - 1} that 32-bit node ids allow\n"
    )


def test_powerfree_no_symmetry_agrees(runner):
    fast = json.loads(run(runner, ["--format", "json", "powerfree", "2", "3", "--cap", "5"]))
    slow = json.loads(run(runner, [
        "--format", "json", "--no-symmetry", "powerfree", "2", "3", "--cap", "5"
    ]))
    assert abs(float(fast["upper"]["lo"]) - float(slow["upper"]["lo"])) <= 4e-6
    assert fast["antidictionary_size"] == slow["antidictionary_size"]


# ---------------------------------------------------------------------------
# roots, circular words, scans


def test_root_table(runner):
    out = run(runner, ["root", "3", "2", "--n-max", "4"])
    lines = out.splitlines()
    assert lines[0] == "k,beta,n,count"
    assert lines[1:] == ["3,2,1,3", "3,2,2,6", "3,2,3,6", "3,2,4,6"]
    doc = json.loads(run(runner, ["--format", "json", "root", "3", "2", "--n-max", "4"]))
    assert doc[-1] == {"k": 3, "beta": "2", "n": 4, "count": 6}


def test_circular_listing(runner):
    out = run(runner, ["circular", "--n", "3"])
    assert out.splitlines() == ["n,word", "3,abc", "3,acb"]
    assert run(runner, ["circular", "--n", "5"]).splitlines() == ["n,word"]
    out = run(runner, ["circular", "--n", "4", "--counts"])
    assert out.splitlines() == ["n,count", "4,3"]
    doc = json.loads(run(runner, ["--format", "json", "circular", "--n", "3"]))
    assert [row["word"] for row in doc] == ["abc", "acb"]


def test_scan_formats(runner):
    assert run(runner, ["scan", "2", "5/2", "--p-max", "12"]).strip() == "5,9,11"
    doc = json.loads(run(runner, ["--format", "json", "scan", "2", "5/2", "--p-max", "12"]))
    assert doc["forbidden"] == [5, 9, 11]
    out = run(runner, ["--format", "csv", "scan", "2", "5/2", "--p-max", "8"])
    assert out.splitlines() == ["p", "5"]


def test_scan_budget_failure(runner):
    result = runner.invoke(main, ["--budget", "1", "scan", "2", "5/2", "--p-max", "8"])
    assert result.exit_code == 1
    assert "budget" in result.output


def test_root_budget_failure(runner):
    result = runner.invoke(main, ["--budget", "10", "root", "3", "2", "--n-max", "19"])
    assert result.exit_code == 1
    assert "budget of 10 candidate roots exhausted at period 19" in result.output


@pytest.mark.parametrize(
    "args,visited",
    [
        # the canonical ternary square-free words up to length 8
        (["root", "3", "2", "--n-max", "8"], 42),
        # every ternary square-free word up to length 8
        (["circular", "--n", "8", "--k", "3"], 249),
    ],
)
def test_root_and_circular_budget_boundary(runner, args, visited):
    for fmt in ("text", "json"):
        full = run(runner, ["--format", fmt, *args])
        assert run(runner, ["--format", fmt, "--budget", str(visited), *args]) == full
    result = runner.invoke(main, ["--budget", str(visited - 1), *args])
    assert result.exit_code == 1
    assert result.output == (
        f"Error: budget of {visited - 1} candidate roots exhausted at period 8\n"
    )


@pytest.mark.parametrize(
    "args", [["root", "3", "2", "--n-max", "8"], ["scan", "2", "5/2", "--p-max", "12"]]
)
def test_root_and_scan_run_one_search(runner, monkeypatch, args):
    searches = []
    for name in ("minimal_word_arrays", "periods_without_minimal_words"):
        search = getattr(words, name)

        def counted(*a, search=search, **kw):
            searches.append(a)
            return search(*a, **kw)

        for module in (words, circular):
            monkeypatch.setattr(module, name, counted)
    run(runner, args)
    assert len(searches) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["powerfree", "0", "2", "--cap", "4"],
        ["root", "0", "2", "--n-max", "3"],
        ["scan", "0", "2", "--p-max", "4"],
        ["circular", "--n", "4", "--k", "0"],
        ["circular", "--n", "0", "--k", "0"],
    ],
)
def test_empty_alphabet_is_a_clean_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "Error: alphabet must have at least 1 letter" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["--budget", "-5", "root", "3", "2", "--n-max", "3"],
        ["--budget", "0", "root", "3", "2", "--n-max", "3"],
        ["--budget", "0", "scan", "2", "5/2", "--p-max", "8"],
        ["--budget", "-5", "scan", "2", "5/2", "--p-max", "8"],
    ],
)
def test_budget_below_one_is_rejected(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "Error: budget must be at least 1" in result.output


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_scan_rejects_threads_below_one(runner, threads):
    result = runner.invoke(main, ["--threads", threads, "scan", "2", "5/2", "--p-max", "8"])
    assert result.exit_code == 1
    assert "threads must be at least 1" in result.output


def test_scan_threads_deterministic(runner):
    one = run(runner, ["scan", "2", "7/3", "--p-max", "10"])
    two = run(runner, ["--threads", "2", "scan", "2", "7/3", "--p-max", "10"])
    assert one == two


def test_asymptotic_values(runner):
    out = run(runner, ["asymptotic", "10", "3"])
    assert out.startswith("9.91")
    assert "991/100" in out
    doc = json.loads(run(runner, ["--format", "json", "asymptotic", "12", "2+"]))
    assert doc["value"].startswith("11.916")
    assert runner.invoke(main, ["asymptotic", "10", "7/4"]).exit_code == 1


def test_runs_are_deterministic(runner):
    args = ["--format", "json", "powerfree", "3", "2", "--cap", "3"]
    first = json.loads(run(runner, args))
    second = json.loads(run(runner, args))
    first.pop("wall_seconds")
    second.pop("wall_seconds")
    assert first == second
