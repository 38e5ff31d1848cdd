"""Command-line front end.

One subcommand per analysis; global options pick the certified interval
half-width, output format, search budget, and whether the
letter-symmetry quotient is used.  All numeric output is rounded
outward, so printed intervals always contain the certified ones.

The command group is the one error boundary: a ``ValueError`` (every
input check the library makes, ``DfaFormatError`` among them), a
search or size limit (``BudgetExceededError``, ``TrieSizeError``,
``SubsetLimitError``, ``IndexBudgetError``, ``ProfileSizeError``) or a
``MemoryError`` from any command ends in one ``Error: ...`` line and
exit status 1.  The
commands catch nothing of their own, except that ``powerfree`` prints a
finite approximation as its answer.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import click

from wordgrowth.automaton import format_dfa, parse_dfa, transition_graph, trim
from wordgrowth.circular import (
    enumerate_circular_square_free,
    forbidden_period_scan,
    root_table,
)
from wordgrowth.fad import (
    SubsetLimitError,
    TrieSizeError,
    fad_automaton,
    intermediate_count,
    intermediate_member,
    parse_antidictionary,
    tm_antidictionary,
    extendable_part,
)
from wordgrowth.growth import (
    IndexBudgetError,
    ProfileSizeError,
    approximate_index,
    asymptotic_profile,
    decimal_lower,
    decimal_upper,
    digraph_index,
)
from wordgrowth.powerfree import (
    FiniteApproximationError,
    approximation_bounds,
    asymptotic_formula,
)
from wordgrowth.words import BudgetExceededError, ExponentBound, parse_word, word_to_str


def _parse_delta(text: str) -> Fraction:
    try:
        d = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.ClickException(f"bad delta {text!r}") from None
    if d <= 0:
        raise click.ClickException("delta must be positive")
    return d


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _no_csv(fmt: str):
    if fmt == "csv":
        raise click.ClickException("csv output is not defined for this command")


class _Main(click.Group):
    """The command group and the CLI's one error boundary, around the
    group callback and every command: a ``ValueError``, a search or size
    limit, or a ``MemoryError`` (often without text) becomes a
    ``click.ClickException``, one ``Error: ...`` line and exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, BudgetExceededError, TrieSizeError, SubsetLimitError,
                IndexBudgetError, ProfileSizeError) as exc:
            raise click.ClickException(str(exc)) from None
        except MemoryError as exc:
            raise click.ClickException(str(exc) or "out of memory") from None


@click.group(cls=_Main)
@click.option("--delta", default="1e-6", show_default=True,
              help="Half-width of certified growth-rate intervals.")
@click.option("--budget", default=20_000_000, show_default=True, type=int,
              help="Free words the one root search of a powerfree, root, "
                   "circular or scan query may visit.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text", show_default=True)
@click.option("--threads", default=1, show_default=True, type=int,
              help="Has no effect: every query runs in one process.")
@click.option("--no-symmetry", is_flag=True,
              help="Build full automata instead of letter-symmetry quotients.")
@click.pass_context
def main(ctx, delta, budget, fmt, threads, no_symmetry):
    """Growth-rate analyses for regular and power-free languages."""
    if budget < 1:
        raise click.ClickException("budget must be at least 1")
    if threads < 1:
        raise click.ClickException("threads must be at least 1")
    ctx.obj = {
        "delta": _parse_delta(delta),
        "budget": budget,
        "fmt": fmt,
        "symmetry": not no_symmetry,
    }


@main.command("dfa-report")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def cmd_dfa_report(obj, path):
    """Growth profile of the language of an automaton file."""
    _no_csv(obj["fmt"])
    report = asymptotic_profile(trim(parse_dfa(_read(path))), obj["delta"])
    click.echo(report.to_json_text() if obj["fmt"] == "json" else report.to_text(), nl=False)
    if obj["fmt"] == "json":
        click.echo()


@main.command("fad")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def cmd_fad(obj, path):
    """Growth profile of the language avoiding an antidictionary file."""
    _no_csv(obj["fmt"])
    ad = parse_antidictionary(_read(path))
    dfa = fad_automaton(ad)
    report = asymptotic_profile(dfa, obj["delta"])
    if obj["fmt"] == "json":
        doc = json.loads(report.to_json_text())
        doc = {
            "alphabet": ad.alphabet_size,
            "forbidden_words": len(ad),
            "automaton_states": dfa.state_count,
            **doc,
        }
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(
            f"alphabet     {ad.alphabet_size}\n"
            f"forbidden    {len(ad)} words\n"
            f"states       {dfa.state_count}\n" + report.to_text(),
            nl=False,
        )


@main.command("tm-approx")
@click.argument("level", type=int)
@click.pass_obj
def cmd_tm_approx(obj, level):
    """Growth rate of the level-i Thue-Morse approximation language."""
    _no_csv(obj["fmt"])
    ad = tm_antidictionary(level)
    dfa = fad_automaton(ad)
    rate = approximate_index(dfa, obj["delta"])
    if obj["fmt"] == "json":
        doc = {
            "level": level,
            "forbidden_words": len(ad),
            "automaton_states": dfa.state_count,
            "rate": {"lo": decimal_lower(rate.lo), "hi": decimal_upper(rate.hi)},
        }
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(
            f"level        {level}\n"
            f"forbidden    {len(ad)} words\n"
            f"states       {dfa.state_count}\n"
            f"rate         [{decimal_lower(rate.lo)}, {decimal_upper(rate.hi)}]"
        )


@main.command("extendable")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--side", type=click.Choice(["right", "two_sided"]), default="right",
              show_default=True)
@click.option("--dump", is_flag=True, help="Print the resulting automaton instead.")
@click.pass_obj
def cmd_extendable(obj, path, side, dump):
    """Extendable part of a factor-closed language."""
    _no_csv(obj["fmt"])
    dfa = trim(parse_dfa(_read(path)))
    part = extendable_part(dfa, side)
    if dump:
        click.echo(format_dfa(part), nl=False)
        return
    rows = {"side": side}
    for name, x in (("language", dfa), ("part", part)):
        # a graph with no cycle, the empty one included, certifies [0, 0]
        rate = digraph_index(transition_graph(x), obj["delta"])
        rows[name] = {"states": x.state_count, "rate_lo": decimal_lower(rate.lo),
                      "rate_hi": decimal_upper(rate.hi)}
    if obj["fmt"] == "json":
        click.echo(json.dumps(rows, indent=2))
    else:
        click.echo(
            f"side         {side}\n"
            f"language     {rows['language']['states']} states, "
            f"rate [{rows['language']['rate_lo']}, {rows['language']['rate_hi']}]\n"
            f"part         {rows['part']['states']} states, "
            f"rate [{rows['part']['rate_lo']}, {rows['part']['rate_hi']}]"
        )


@main.command("intermediate")
@click.argument("n", type=int)
@click.option("--k", default=2, show_default=True, type=int)
@click.option("--word", default=None, help="Check membership of this word instead.")
@click.pass_obj
def cmd_intermediate(obj, n, k, word):
    """Counting function of the staircase language."""
    if word is not None:
        result = intermediate_member(parse_word(word), k)
    else:
        result = intermediate_count(n, k)
    if obj["fmt"] == "json":
        click.echo(json.dumps({"n": n, "k": k, "word": word, "result": result}))
    elif obj["fmt"] == "csv":
        click.echo("n,count" if word is None else "word,member")
        click.echo(f"{n},{result}" if word is None else f"{word},{result}")
    else:
        click.echo(str(result))


@main.command("powerfree")
@click.argument("k", type=int)
@click.argument("beta")
@click.option("--cap", required=True, type=int)
@click.option("--mode", type=click.Choice(["period", "excess"]), default="period",
              show_default=True)
@click.option("--no-lower", is_flag=True, help="Skip the lower-bound computation.")
@click.pass_obj
def cmd_powerfree(obj, k, beta, cap, mode, no_lower):
    """Two-sided growth bounds for a power-free language."""
    _no_csv(obj["fmt"])
    bound = ExponentBound.parse(beta)
    started = time.perf_counter()
    try:
        bounds = approximation_bounds(
            k,
            bound,
            cap,
            mode,
            delta=obj["delta"],
            symmetry=obj["symmetry"],
            with_lower=not no_lower,
            budget=obj["budget"],
        )
    except FiniteApproximationError as exc:
        # a finite approximation is an answer, not a failure
        if obj["fmt"] == "json":
            click.echo(json.dumps({"k": k, "beta": str(bound), "mode": mode,
                                   "cap": cap, "finite": True, "note": str(exc)}))
        else:
            click.echo(f"language     L({k}, {bound})\nfinite       {exc}")
        return
    elapsed = time.perf_counter() - started
    if obj["fmt"] == "json":
        doc = json.loads(bounds.to_json_text())
        doc["wall_seconds"] = round(elapsed, 3)
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(bounds.to_text(), nl=False)
        click.echo(f"wall         {elapsed:.3f} s")


@main.command("root")
@click.argument("k", type=int)
@click.argument("beta")
@click.option("--n-max", required=True, type=int)
@click.pass_obj
def cmd_root(obj, k, beta, n_max):
    """Table of minimal-power counts by period."""
    bound = ExponentBound.parse(beta)
    if n_max < 1:
        raise click.ClickException("n-max must be at least 1")
    counts = root_table(k, bound, n_max, obj["budget"])
    if obj["fmt"] == "json":
        click.echo(json.dumps(
            [{"k": k, "beta": str(bound), "n": n, "count": c}
             for n, c in enumerate(counts, 1)], indent=2
        ))
    else:
        click.echo("k,beta,n,count")
        for n, c in enumerate(counts, 1):
            click.echo(f"{k},{bound},{n},{c}")


@main.command("circular")
@click.option("--n", required=True, type=int)
@click.option("--k", default=3, show_default=True, type=int)
@click.option("--counts", is_flag=True, help="Emit only the count.")
@click.pass_obj
def cmd_circular(obj, n, k, counts):
    """Square-free circular words of one length."""
    words = enumerate_circular_square_free(n, k, obj["budget"])
    if counts:
        if obj["fmt"] == "json":
            click.echo(json.dumps({"n": n, "count": len(words)}))
        else:
            click.echo("n,count")
            click.echo(f"{n},{len(words)}")
        return
    if obj["fmt"] == "json":
        click.echo(json.dumps(
            [{"n": n, "word": word_to_str(w.representative)} for w in words], indent=2
        ))
    else:
        click.echo("n,word")
        for w in words:
            click.echo(f"{n},{word_to_str(w.representative)}")


@main.command("scan")
@click.argument("k", type=int)
@click.argument("beta")
@click.option("--p-max", required=True, type=int)
@click.pass_obj
def cmd_scan(obj, k, beta, p_max):
    """Forbidden periods of a power-free language up to p-max."""
    bound = ExponentBound.parse(beta)
    forbidden = forbidden_period_scan(k, bound, p_max, budget=obj["budget"])
    rows = sorted(forbidden)
    if obj["fmt"] == "json":
        click.echo(json.dumps({"k": k, "beta": str(bound), "p_max": p_max,
                               "forbidden": rows}))
    elif obj["fmt"] == "csv":
        click.echo("p")
        for p in rows:
            click.echo(str(p))
    else:
        click.echo(",".join(str(p) for p in rows))


@main.command("asymptotic")
@click.argument("k", type=int)
@click.argument("beta")
@click.pass_obj
def cmd_asymptotic(obj, k, beta):
    """Closed-form large-alphabet growth rate estimate."""
    _no_csv(obj["fmt"])
    bound = ExponentBound.parse(beta)
    value = asymptotic_formula(k, bound)
    if obj["fmt"] == "json":
        click.echo(json.dumps({
            "k": k,
            "beta": str(bound),
            "value": decimal_lower(value),
            "fraction": f"{value.numerator}/{value.denominator}",
        }))
    else:
        click.echo(f"{decimal_lower(value)} (= {value.numerator}/{value.denominator})")


if __name__ == "__main__":
    main()
