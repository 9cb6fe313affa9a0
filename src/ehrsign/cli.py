"""Command-line surface.

Exit codes: 0 success, 1 verification mismatch, 2 search exhaustion,
64 usage error, 65 precondition error.  All numeric I/O is plain decimal.
"""

from __future__ import annotations

import json
import sys

import click

from .delta import (
    DeltaQ,
    DivisibilityError,
    FastPreconditionError,
    hstar,
    hstar_family,
    l1_l2,
)
from .ehrhart import (
    expr_ehrhart,
    expr_from_json,
    expr_to_json,
    from_hstar,
    sign_vector,
)
from .eulerian import eulerian_descent, eulerian_recurrence, sdm, sdm_ehrhart, sdm_hstar
from .oracle import OracleGuardError, count_points
from .polynomials import poly_to_json, poly_to_text
from .signpattern import SearchExhausted, construct, format_pattern, parse_pattern

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_EXHAUSTED = 2
EXIT_USAGE = 64
EXIT_PRECONDITION = 65


def _parse_q(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"--q must be a comma-separated integer list, got {text!r}")


def _domain(fn, *args):
    """fn(*args), reporting a ValueError (an argument outside fn's domain) as
    a usage error.  Only computations go through here, never printing, so
    the int-to-str limit is not relabelled."""
    try:
        return fn(*args)
    except ValueError as e:
        raise click.UsageError(str(e))


def _delta(q: str, n: int) -> DeltaQ:
    return _domain(DeltaQ, _parse_q(q), n)


def _print_poly(poly, var: str, as_json: bool):
    if as_json:
        click.echo(json.dumps(poly_to_json(poly, var=var)))
    else:
        click.echo(poly_to_text(poly, var=var))


@click.group()
def cli():
    """Exact h*, Ehrhart, and sign-pattern computations."""


@cli.command("hstar")
@click.option("--q", "q", required=True, help="comma-separated q_1,...,q_{d-1}")
@click.option("--n", "n", required=True, type=int)
@click.option(
    "--method",
    type=click.Choice(["auto", "fast", "naive"]),
    default="auto",
    show_default=True,
)
@click.option("--json", "as_json", is_flag=True)
def cmd_hstar(q, n, method, as_json):
    """h*-polynomial of Delta(0,q)."""
    s = _delta(q, n)
    h = hstar(s, method=method)
    _print_poly(h.poly, "x", as_json)


@cli.command("family")
@click.option("--q", "q", required=True)
@click.option("--n", "n", required=True, type=int)
@click.option("--m", "m", type=int, default=None, help="also print h* of Delta(0,q^(m))")
@click.option("--json", "as_json", is_flag=True)
def cmd_family(q, n, m, as_json):
    """Characteristic polynomials L1, L2 of the family Delta(0,q^(m))."""
    s = _delta(q, n)
    l1, l2 = l1_l2(s)
    h_m = _domain(hstar_family, s, m).poly if m is not None else None
    if as_json:
        out = {"L1": poly_to_json(l1, var="x"), "L2": poly_to_json(l2, var="x")}
        if m is not None:
            out["hstar_m"] = poly_to_json(h_m, var="x")
        click.echo(json.dumps(out))
        return
    click.echo(f"L1 = {poly_to_text(l1, var='x')}")
    click.echo(f"L2 = {poly_to_text(l2, var='x')}")
    if m is not None:
        click.echo(f"hstar(m={m}) = {poly_to_text(h_m, var='x')}")


@cli.command("eulerian")
@click.option("--d", "d", required=True, type=int)
@click.option(
    "--method",
    type=click.Choice(["recurrence", "descent"]),
    default="recurrence",
    show_default=True,
)
@click.option("--json", "as_json", is_flag=True)
def cmd_eulerian(d, method, as_json):
    """Eulerian polynomial A_d(x)."""
    method_fn = eulerian_recurrence if method == "recurrence" else eulerian_descent
    poly = _domain(method_fn, d)
    _print_poly(poly, "x", as_json)


@cli.command("sdm")
@click.option("--d", "d", required=True, type=int)
@click.option("--m", "m", required=True, type=int)
@click.option(
    "--what",
    type=click.Choice(["vertices", "hstar", "ehrhart"]),
    default="hstar",
    show_default=True,
)
@click.option("--json", "as_json", is_flag=True)
def cmd_sdm(d, m, what, as_json):
    """The Eulerian simplex S_d(m)."""
    if what == "vertices":
        verts = _domain(sdm, d, m).vertices()
        if as_json:
            click.echo(json.dumps([list(v) for v in verts]))
        else:
            for v in verts:
                click.echo(" ".join(str(x) for x in v))
    elif what == "hstar":
        _print_poly(_domain(sdm_hstar, d, m).poly, "x", as_json)
    else:
        _print_poly(_domain(sdm_ehrhart, d, m), "t", as_json)


@cli.command("ehrhart")
@click.option("--q", "q", default=None)
@click.option("--n", "n", type=int, default=None)
@click.option("--expr", "expr_json", default=None, help="PolytopeExpr JSON string")
@click.option("--json", "as_json", is_flag=True)
def cmd_ehrhart(q, n, expr_json, as_json):
    """Ehrhart polynomial of Delta(0,q) (via --q/--n) or a PolytopeExpr."""
    if expr_json is not None:
        if q is not None or n is not None:
            raise click.UsageError("--expr excludes --q/--n")
        try:
            expr = expr_from_json(json.loads(expr_json))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as e:
            raise click.UsageError(f"bad --expr: {e}")
        ehr = expr_ehrhart(expr)
    elif q is not None and n is not None:
        s = _delta(q, n)
        ehr = from_hstar(hstar(s), s.d)
    else:
        raise click.UsageError("need --expr or both --q and --n")
    _print_poly(ehr.poly, "t", as_json)


@cli.command("sign-construct")
@click.option("--pattern", "pattern_text", required=True)
@click.option("--max-base", type=int, default=64, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_sign_construct(pattern_text, max_base, as_json):
    """Build a verified polytope realizing a +/- middle-coefficient pattern."""
    try:
        pattern = parse_pattern(pattern_text)
    except ValueError as e:
        raise click.UsageError(str(e))
    result = construct(pattern, max_b=max_base)
    sv = sign_vector(result.ehrhart)
    if as_json:
        click.echo(
            json.dumps(
                {
                    "pattern": pattern_text,
                    "expr": expr_to_json(result.expr),
                    "ehrhart": poly_to_json(result.ehrhart.poly, var="t"),
                    "sign_vector": list(sv),
                    "trace": list(result.trace),
                }
            )
        )
        return
    click.echo(f"pattern = {pattern_text}")
    click.echo(f"expr = {json.dumps(expr_to_json(result.expr))}")
    click.echo(f"ehrhart = {poly_to_text(result.ehrhart.poly, var='t')}")
    click.echo(f"sign vector = {format_pattern(sv)}")
    click.echo(f"trace = {' -> '.join(result.trace)}")


@cli.command("verify")
@click.option("--q", "q", required=True)
@click.option("--n", "n", required=True, type=int)
@click.option(
    "--tmax", type=click.IntRange(min=0), default=None, help="defaults to d+2"
)
def cmd_verify(q, n, tmax):
    """Compare oracle lattice counts against the closed-form Ehrhart polynomial."""
    s = _delta(q, n)
    ehr = from_hstar(hstar(s), s.d)
    tmax = tmax if tmax is not None else s.d + 2
    ok = True
    for t in range(tmax + 1):
        counted = count_points(s, t).count
        predicted = ehr.eval(t)
        status = "ok" if counted == predicted else "MISMATCH"
        click.echo(f"t={t}: oracle={counted} closed-form={predicted} {status}")
        ok = ok and counted == predicted
    if not ok:
        sys.exit(EXIT_MISMATCH)


def main(argv=None) -> int:
    # Witnesses run to many thousands of digits: lift the int-to-str limit
    # for the integers this CLI computed itself, and restore it on the way out.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        return EXIT_USAGE
    except (FastPreconditionError, DivisibilityError, OracleGuardError) as e:
        click.echo(f"precondition error: {e}", err=True)
        return EXIT_PRECONDITION
    except SearchExhausted as e:
        click.echo(f"search exhausted: {e}", err=True)
        return EXIT_EXHAUSTED
    except SystemExit as e:
        return int(e.code or 0)
    except click.ClickException as e:
        e.show()
        return EXIT_USAGE
    finally:
        if lift:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
