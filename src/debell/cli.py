"""Command-line entry point.

All numeric flags accept integers or exact rationals written as "p/q".
Plain output is the canonical rational string followed by a newline; json
and csv outputs are byte-deterministic for identical invocations.  Usage
errors exit with 2, computation errors with 1.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from . import __version__, bell, enumeration, stirling
from .derangements import r_derangement_egf, r_derangement_rec
from .exact import ParamSet, as_rat, format_point, format_rat


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


def _write(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(fmt: str, out: str | None, doc, lines) -> None:
    """Write ``doc`` as sorted, indented JSON for fmt "json", else ``lines``,
    each followed by a newline."""
    if fmt == "json":
        lines = [json.dumps(doc, sort_keys=True, indent=2)]
    _write("".join(line + "\n" for line in lines), out)


def _emit_scalar(command: str, params: ParamSet, fmt: str, out, extras: dict, value) -> None:
    """One value as plain text, a JSON object, or a CSV header and row whose
    point cell reads ``alpha=0;beta=1;...`` and whose None cells are empty."""
    point = params.as_pairs()
    doc = {"command": command, "point": dict(point), **extras, "value": format_rat(value)}
    cells = {**doc, "point": format_point(point)}
    keys = sorted(cells)
    csv_lines = [",".join(keys), ",".join("" if cells[k] is None else str(cells[k]) for k in keys)]
    _emit(fmt, out, doc, [doc["value"]] if fmt == "plain" else csv_lines)


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
    "closed": bell.bell_general_closed,
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
        _emit(fmt, out, None, _run(lambda: list(spec.lines(**point))))
        return
    count = _run(spec.count, *point.values())
    doc = {"command": "enumerate", "family": family, "point": point, "count": count}
    keys = sorted(point)
    csv_lines = [
        ",".join(["family", *keys, "count"]),
        ",".join([family, *(str(point[key]) for key in keys), str(count)]),
    ]
    _emit(fmt, out, doc, [str(count)] if fmt == "plain" else csv_lines)


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
    table = [
        {
            "delta": cmp.delta,
            "estimate": format_rat(cmp.estimate),
            "exact": format_rat(cmp.exact),
            "rel_error": None if cmp.rel_error is None else format_rat(cmp.rel_error),
            "status": cmp.status,
        }
        for cmp in rows
    ]
    doc = {"command": "asymp", "n": n, "m": m, "point": dict(params.as_pairs()), "rows": table}
    csv_lines = ["delta,estimate,exact,rel_error,status"] + [
        f"{row['delta']},{row['estimate']},{row['exact']},{row['rel_error'] or ''},{row['status']}"
        for row in table
    ]
    _emit(fmt, out, doc, csv_lines)


@main.command("verify")
@click.option("--claims", default=None, help="comma-separated claim ids (default: all)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "markdown"]), default="csv")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--max-n", type=click.IntRange(min=0), default=None, help="override the grid's n range")
def verify_cmd(claims, fmt, out, max_n):
    """Run the claim registry and report per-point outcomes.

    Exits 0 when every claim that is required to hold reports EQUAL on all
    its points, 1 otherwise.
    """
    from . import verify

    ids = None if claims is None else [c.strip() for c in claims.split(",") if c.strip()]
    if ids == []:
        raise click.UsageError("--claims names no claim id")
    grid = verify.GridSpec.default() if max_n is None else verify.GridSpec(max_n=max_n)
    try:
        report = verify.run_claims(ids, grid)
    except verify.UnknownClaimError as exc:
        raise click.UsageError(str(exc))
    # the report bytes are emit_report's own (and pinned), so they bypass _emit
    _write(verify.emit_report(report, fmt).decode(), out)
    if not report.all_required_equal:
        failures = report.required_failures()
        click.echo(f"required-equal failures: {len(failures)}", err=True)
        for row in failures[:10]:
            point = ",".join(f"{key}={value}" for key, value in row.point)
            click.echo(f"  {row.claim} {point} lhs={row.lhs} rhs={row.rhs}", err=True)
        sys.exit(1)


@main.command("table")
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@_param_options
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def table_cmd(max_n, alpha, beta, gamma, x, lam, r, out):
    """CSV table of B[n] for n = 0..max-n."""
    params = ParamSet.make(alpha, beta, gamma, x, lam, r)
    values = _run(bell.bell_egf, max_n, params)
    _emit("csv", out, None, ["n,value"] + [f"{n},{format_rat(v)}" for n, v in enumerate(values)])


if __name__ == "__main__":
    main()
