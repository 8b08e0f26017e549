"""Command-line entry point.

All numeric flags accept integers or exact rationals written as "p/q".
Plain output is the canonical rational string followed by a newline; json
and csv outputs are byte-deterministic for identical invocations.  Usage
errors exit with 2, computation errors with 1, a closed stdout with 141.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

import click
from click.core import ParameterSource

from . import __version__, bell, enumeration, stirling
from .derangements import r_derangement_egf, r_derangement_rec
from .exact import ParamSet, as_rat, csv_text, format_point, format_rat


class _RationalType(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        try:
            return as_rat(value)
        except (ValueError, ZeroDivisionError, TypeError):
            self.fail(f"{value!r} is not an integer or p/q rational", param, ctx)


RATIONAL = _RationalType()


def _options(*decorators):
    def apply(fn):
        for decorator in reversed(decorators):
            fn = decorator(fn)
        return fn

    return apply


_weight_options = _options(
    click.option("--alpha", type=RATIONAL, default=Fraction(0), show_default="0"),
    click.option("--beta", type=RATIONAL, default=Fraction(1), show_default="1"),
    click.option("--gamma", type=RATIONAL, default=Fraction(0), show_default="0"),
)

_x_option = click.option("--x", type=RATIONAL, default=Fraction(1), show_default="1")
_r_option = click.option("--r", type=click.IntRange(min=0), default=0, show_default=True)
_lambda_option = click.option("--lambda", "lam", type=click.IntRange(min=0), default=1,
                              show_default=True)

_param_options = _options(_weight_options, _x_option, _lambda_option, _r_option)

_output_options = _options(
    click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]), default="plain"),
    click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None),
)


def _write(chunks, out: str | None) -> None:
    """Write the byte ``chunks`` one by one to the file ``out``, or to stdout when it is None."""
    try:
        with nullcontext(click.get_binary_stream("stdout")) if out is None else open(out, "wb") as sink:
            for chunk in chunks:  # click's test runner copies write() to its output, not writelines()
                sink.write(chunk)
            sink.flush()
    except BrokenPipeError:  # the reader left: exit quietly with the shell's SIGPIPE status
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # unflushed bytes to null
        sys.exit(141)


def _emit(fmt: str, out: str | None, doc, header, rows) -> None:
    """Write ``doc`` as sorted, indented JSON for fmt "json", ``header`` and ``rows``
    as CSV for "csv", and each row's last cell (value, count or line) for "plain"."""
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = csv_text(header, rows)
    else:
        text = "".join(f"{row[-1]}\n" for row in rows)
    _write([text.encode()], out)


def _emit_scalar(command: str, params: ParamSet, fmt: str, out, extras: dict, value) -> None:
    """One value as plain text, a JSON object, or a CSV header and row of the
    same keys, sorted, whose point cell reads ``alpha=0;beta=1;...``."""
    point = params.as_pairs()
    doc = {"command": command, "point": dict(point), **extras, "value": format_rat(value)}
    keys, cells = zip(*sorted({**doc, "point": format_point(point)}.items()))
    _emit(fmt, out, doc, keys, [cells])


def _run(fn, *args):
    """fn(*args), with a computation error reported as exit status 1."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


@click.group()
@click.version_option(__version__, prog_name="debell")
def main():
    """Exact computation and cross-checking for deranged Bell number families."""


@main.command("stirling")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--k", type=click.IntRange(min=0), required=True)
@click.option("--route", type=click.Choice(["rec", "egf"]), default="rec", show_default=True)
@_weight_options
@_output_options
def stirling_cmd(n, k, route, alpha, beta, gamma, fmt, out):
    """Generalized Stirling number S(n, k; alpha, beta, gamma)."""
    compute = stirling.stirling_rec if route == "rec" else stirling.stirling_egf
    value = _run(compute, n, k, alpha, beta, gamma)
    params = ParamSet.make(alpha, beta, gamma)
    _emit_scalar("stirling", params, fmt, out, {"n": n, "k": k, "route": route}, value)


@main.command("rderange")
@click.option("--k", type=click.IntRange(min=0), required=True)
@_r_option
@click.option("--s", type=int, default=None, help="recurrence pivot in 1..r")
@_output_options
def rderange_cmd(k, r, s, fmt, out):
    """r-derangement number d_{k,r} (recurrence route when --s is given)."""
    if s is not None and not 1 <= s <= r:
        raise click.BadParameter(f"{s} is outside the pivot range 1..r = 1..{r}", param_hint="--s")
    if s is None:
        value = _run(r_derangement_egf, k, r)
    else:
        value = _run(r_derangement_rec, k, r, s)
    _emit_scalar("rderange", ParamSet.make(lam=1, r=r), fmt, out, {"k": k, "r": r, "s": s}, value)


_BELL_ROUTES = {
    "egf": lambda n, params: bell.bell_egf(n, params)[n],
    "lambda1": bell.bell_lambda1,
    "closed": lambda n, params: bell.bell_closed_lam(n, params)[n],
    "convolution": bell.bell_convolution,
    "classic": bell.bell_classic,
}


@main.command("bell")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--route", type=click.Choice(list(_BELL_ROUTES)), default="egf", show_default=True)
@_param_options
@_output_options
def bell_cmd(n, route, alpha, beta, gamma, x, lam, r, fmt, out):
    """Higher-order r-deranged Bell number B[n]."""
    params = ParamSet.make(alpha, beta, gamma, x, lam, r)
    value = _run(_BELL_ROUTES[route], n, params)
    _emit_scalar("bell", params, fmt, out, {"n": n, "route": route}, value)


@main.command("omega")
@click.option("--n", type=click.IntRange(min=0), required=True)
@_weight_options
@_x_option
@_lambda_option
@_output_options
def omega_cmd(n, alpha, beta, gamma, x, lam, fmt, out):
    """Barred-arrangement polynomial value omega[n]; it does not depend on r,
    so there is no --r."""
    params = ParamSet.make(alpha, beta, gamma, x, lam)
    _emit_scalar("omega", params, fmt, out, {"n": n}, _run(bell.omega, n, params))


@main.command("enumerate")
@click.option("--family", type=click.Choice(list(enumeration.FAMILIES)), required=True)
@click.option("--n", type=click.IntRange(min=0), default=None)
@click.option("--k", type=click.IntRange(min=0), default=None)
@_r_option
@click.option("--lambda", "lam", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--list", "list_items", is_flag=True, help="print arrangements one per line")
@_output_options
def enumerate_cmd(family, n, k, r, lam, list_items, fmt, out):
    """Brute-force counts (and listings) of the combinatorial families."""
    spec = enumeration.FAMILIES[family]
    given = {"n": n, "k": k, "r": r, "lam": lam}
    source = click.get_current_context().get_parameter_source
    for name, value in given.items():
        flag = "--lambda" if name == "lam" else f"--{name}"
        if name in spec.fields and value is None:
            raise click.UsageError(f"{flag} is required for {family}")
        if name not in spec.fields and source(name) is ParameterSource.COMMANDLINE:
            raise click.UsageError(f"{flag} does not apply to {family}")
    point = {name: given[name] for name in spec.fields}
    if list_items:
        if fmt != "plain":
            raise click.UsageError("--list prints plain lines only; drop --format")
        _emit("plain", out, None, None, _run(lambda: [[line] for line in spec.lines(**point)]))
        return
    count = _run(spec.count, *point.values())
    doc = {"command": "enumerate", "family": family, "point": point, "count": count}
    keys = sorted(point)
    _emit(fmt, out, doc, ["family", *keys, "count"], [[family, *map(point.get, keys), count]])


@main.command("asymp")
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--m", type=click.IntRange(min=0), default=None, help="truncation order, default n-1")
@click.option("--delta", "deltas", type=int, multiple=True, required=True)
@_weight_options
@_x_option
@_r_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def asymp_cmd(n, m, deltas, alpha, beta, gamma, x, r, fmt, out):
    """Convergence table (delta, estimate, exact, rel_error) for B[n]/n!;
    the exponent is delta, so there is no --lambda."""
    from . import asymptotics

    params = ParamSet.make(alpha, beta, gamma, x, r=r)
    m = n - 1 if m is None else m
    rows = _run(
        lambda: [asymptotics.bell_asymptotic_estimate(n, m, d, params) for d in sorted(set(deltas))]
    )
    header = ["delta", "estimate", "exact", "rel_error", "status"]
    table = [[cmp.delta, format_rat(cmp.estimate), format_rat(cmp.exact),
              None if cmp.rel_error is None else format_rat(cmp.rel_error), cmp.status]
             for cmp in rows]
    doc = {"command": "asymp", "n": n, "m": m, "point": dict(params.as_pairs()),
           "rows": [dict(zip(header, row)) for row in table]}
    _emit(fmt, out, doc, header, table)


@main.command("verify")
@click.option("--claims", default=None, help="comma-separated claim ids (default: all)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "markdown"]), default="csv")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--max-n", type=click.IntRange(min=0), default=None,
              help="largest n of any row (default: 8, and 12 for the W claims)")
def verify_cmd(claims, fmt, out, max_n):
    """Run the claim registry and report per-point outcomes.

    Exits 0 when every claim that is required to hold reports EQUAL on all
    its points, 1 otherwise, and 141 if stdout closes before the report ends.
    """
    from . import verify

    ids = None if claims is None else [c.strip() for c in claims.split(",") if c.strip()]
    if ids == []:
        raise click.UsageError("--claims names no claim id")
    try:
        report = verify.run_claims(ids, verify.GridSpec.default(max_n))
    except verify.UnknownClaimError as exc:
        raise click.UsageError(str(exc))
    # streamed from the emitter that emit_report joins, so the whole report is never held
    _write(verify.report_chunks(report, fmt), out)
    failures = report.required_failures()
    if failures:
        click.echo(f"required-equal failures: {len(failures)}", err=True)
        for row in failures[:10]:
            point = format_point(row.point, ",")
            click.echo(f"  {row.claim} {point} lhs={row.lhs} rhs={row.rhs}", err=True)
        sys.exit(1)


@main.command("table")
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@_param_options
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def table_cmd(max_n, alpha, beta, gamma, x, lam, r, out):
    """CSV table of B[n] for n = 0..max-n."""
    values = _run(bell.bell_egf, max_n, ParamSet.make(alpha, beta, gamma, x, lam, r))
    _emit("csv", out, None, ["n", "value"], [(n, format_rat(v)) for n, v in enumerate(values)])


if __name__ == "__main__":
    main()
