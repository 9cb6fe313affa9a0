"""Command-line surface.

Exit codes: 0 success, 1 verification mismatch, 2 search exhaustion,
64 usage error, 65 precondition error.  All numeric I/O is plain decimal.

A one-shot call spends most of its time starting the interpreter and
importing, so this module loads nothing at import time.  Each subcommand
imports only the modules it runs, inside its body: `hstar` and `family`
load delta and polynomials, `eulerian` and `sdm` add eulerian, `ehrhart`
and `verify` add ehrhart (and oracle for `verify`), and only
`sign-construct` loads signpattern.  The options come from one table per
command, which drives both parsing and `--help`; no option-parsing library
is imported.  A value option takes the next token verbatim, so values that
start with a dash parse: `--q -3,-2`, `--pattern --+-`.
"""

from __future__ import annotations

import sys

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_EXHAUSTED = 2
EXIT_USAGE = 64
EXIT_PRECONDITION = 65


class CliError(Exception):
    """Ends a call with exit `code` and the stderr line `label: message`."""

    def __init__(self, code: int, label: str, message):
        super().__init__(message)
        self.code = code
        self.label = label


def _usage(message) -> CliError:
    return CliError(EXIT_USAGE, "usage error", message)


# --- option tables ------------------------------------------------------------


class Option:
    """One row of a command's option table.  `type` converts the value
    (None marks a flag: it takes no value and is False unless given);
    `choices`, when set, lists the values allowed; `help` is its line in
    `--help`."""

    __slots__ = ("type", "required", "choices", "default", "help")

    def __init__(self, type, required=False, choices=(), default=None, help=""):
        self.type = type
        self.required = required
        self.choices = choices
        self.default = default
        self.help = help


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer") from None


def _nonnegative(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


# command name -> (function, its option table); an option `--q` is the
# function's keyword argument `q`
COMMANDS: dict[str, tuple] = {}


def _command(name: str, **options: Option):
    def register(fn):
        COMMANDS[name] = (fn, options)
        return fn

    return register


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _parse(options: dict, args: list[str]) -> dict | None:
    """A command's keyword arguments from its tokens, read by its option
    table; None when `--help` is among them."""
    dests = {_flag(dest): dest for dest in options}
    given = {}
    wants_help = False
    tokens = iter(args)
    for token in tokens:
        if token == "--help":
            wants_help = True
            continue
        flag, eq, value = token.partition("=")
        dest = dests.get(flag)
        if dest is None:
            if token.startswith("-"):
                raise _usage(f"no such option {token!r}")
            raise _usage(f"unexpected argument {token!r}")
        if options[dest].type is None:
            if eq:
                raise _usage(f"option {flag} takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise _usage(f"option {flag} needs a value")
        given[dest] = value
    if wants_help:
        return None
    kwargs = {}
    for dest, opt in options.items():
        if dest not in given:
            if opt.required:
                raise _usage(f"missing option {_flag(dest)}")
            kwargs[dest] = False if opt.type is None else opt.default
            continue
        value = given[dest]
        if opt.type is not None:
            try:
                value = opt.type(value)
            except ValueError as e:
                raise _usage(f"invalid value for {_flag(dest)}: {e}") from None
        if opt.choices and value not in opt.choices:
            allowed = ", ".join(opt.choices)
            raise _usage(f"invalid value for {_flag(dest)}: {value!r} is not one of {allowed}")
        kwargs[dest] = value
    return kwargs


def _rows(rows) -> str:
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join(f"  {left:<{width}}{right}".rstrip() for left, right in rows)


def _group_help() -> str:
    rows = [(name, fn.__doc__.splitlines()[0]) for name, (fn, _) in COMMANDS.items()]
    return (
        "usage: ehrsign COMMAND [OPTIONS]\n\n"
        "Exact h*, Ehrhart, and sign-pattern computations.\n\n"
        f"commands:\n{_rows(rows)}\n\n"
        "Run 'ehrsign COMMAND --help' for the options of one command."
    )


def _command_help(name: str) -> str:
    fn, options = COMMANDS[name]
    rows = []
    for dest, opt in options.items():
        left = _flag(dest)
        if opt.choices:
            left += f" [{'|'.join(opt.choices)}]"
        elif opt.type is not None:
            left += " TEXT" if opt.type is str else " INTEGER"
        notes = [opt.help] if opt.help else []
        if opt.required:
            notes.append("[required]")
        elif opt.default is not None:
            notes.append(f"[default: {opt.default}]")
        rows.append((left, "  ".join(notes)))
    rows.append(("--help", "Show this message and exit."))
    return f"usage: ehrsign {name} [OPTIONS]\n\n{fn.__doc__}\n\noptions:\n{_rows(rows)}"


# --- shared steps ---------------------------------------------------------------


def _parse_q(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise _usage(f"--q must be a comma-separated integer list, got {text!r}") from None


def _domain(fn, *args):
    """fn(*args), reporting a ValueError (an argument outside fn's domain) as
    a usage error.  Only computations go through here, never printing, so
    the int-to-str limit is not relabelled."""
    try:
        return fn(*args)
    except ValueError as e:
        raise _usage(e) from None


def _delta(q: str, n: int):
    from .delta import DeltaQ

    return _domain(DeltaQ, _parse_q(q), n)


def _dumps(obj) -> str:
    import json

    return json.dumps(obj)


def _print_poly(poly, var: str, json: bool) -> None:
    from .polynomials import poly_to_json, poly_to_text

    print(_dumps(poly_to_json(poly, var=var)) if json else poly_to_text(poly, var=var))


# --- commands ---------------------------------------------------------------------

_Q = Option(str, required=True, help="comma-separated q_1,...,q_{d-1}")
_N = Option(_integer, required=True)
_JSON = Option(None)


@_command(
    "hstar", q=_Q, n=_N, method=Option(str, choices=("auto", "fast", "naive"), default="auto"),
    json=_JSON,
)
def _hstar(q, n, method, json):
    """h*-polynomial of Delta(0,q)."""
    from .delta import hstar, hstar_fast, hstar_naive

    method_fn = {"auto": hstar, "fast": hstar_fast, "naive": hstar_naive}[method]
    _print_poly(method_fn(_delta(q, n)).poly, "x", json)


@_command(
    "family", q=_Q, n=_N, m=Option(_integer, help="also print h* of Delta(0,q^(m))"), json=_JSON
)
def _family(q, n, m, json):
    """Characteristic polynomials L1, L2 of the family Delta(0,q^(m))."""
    from .delta import DivisibilityError, hstar_family, l1_l2
    from .polynomials import poly_to_json, poly_to_text

    s = _delta(q, n)
    try:
        l1, l2 = l1_l2(s)
    except DivisibilityError as e:
        raise CliError(EXIT_PRECONDITION, "precondition error", e) from None
    h_m = _domain(hstar_family, s, m).poly if m is not None else None
    if json:
        out = {"L1": poly_to_json(l1, var="x"), "L2": poly_to_json(l2, var="x")}
        if m is not None:
            out["hstar_m"] = poly_to_json(h_m, var="x")
        print(_dumps(out))
        return
    print(f"L1 = {poly_to_text(l1, var='x')}")
    print(f"L2 = {poly_to_text(l2, var='x')}")
    if m is not None:
        print(f"hstar(m={m}) = {poly_to_text(h_m, var='x')}")


@_command(
    "eulerian", d=Option(_integer, required=True),
    method=Option(str, choices=("recurrence", "descent"), default="recurrence"), json=_JSON,
)
def _eulerian(d, method, json):
    """Eulerian polynomial A_d(x)."""
    from .eulerian import eulerian_descent, eulerian_recurrence

    method_fn = eulerian_recurrence if method == "recurrence" else eulerian_descent
    _print_poly(_domain(method_fn, d), "x", json)


@_command(
    "sdm", d=Option(_integer, required=True), m=Option(_integer, required=True),
    what=Option(str, choices=("vertices", "hstar", "ehrhart"), default="hstar"), json=_JSON,
)
def _sdm(d, m, what, json):
    """The Eulerian simplex S_d(m)."""
    from .eulerian import EulerianS, sdm_ehrhart, sdm_hstar

    if what == "vertices":
        verts = _domain(EulerianS, d, m).vertices()
        if json:
            print(_dumps([list(v) for v in verts]))
        else:
            for v in verts:
                print(" ".join(str(x) for x in v))
    elif what == "hstar":
        _print_poly(_domain(sdm_hstar, d, m).poly, "x", json)
    else:
        _print_poly(_domain(sdm_ehrhart, d, m), "t", json)


@_command(
    "ehrhart", q=Option(str), n=Option(_integer),
    expr=Option(str, help="PolytopeExpr JSON string"), json=_JSON,
)
def _ehrhart(q, n, expr, json):
    """Ehrhart polynomial of Delta(0,q) (via --q/--n) or a PolytopeExpr."""
    if expr is not None:
        if q is not None or n is not None:
            raise _usage("--expr excludes --q/--n")
        from json import JSONDecodeError, loads

        from .ehrhart import expr_ehrhart, expr_from_json

        try:
            polytope = expr_from_json(loads(expr))
        except (ValueError, KeyError, TypeError, JSONDecodeError) as e:
            raise _usage(f"bad --expr: {e}") from None
        ehr = expr_ehrhart(polytope)
    elif q is not None and n is not None:
        from .delta import hstar
        from .ehrhart import from_hstar

        s = _delta(q, n)
        ehr = from_hstar(hstar(s), s.d)
    else:
        raise _usage("need --expr or both --q and --n")
    _print_poly(ehr.poly, "t", json)


@_command("sign-construct", pattern=Option(str, required=True), json=_JSON)
def _sign_construct(pattern, json):
    """Build a verified polytope realizing a +/- middle-coefficient pattern."""
    from .ehrhart import expr_to_json, sign_vector
    from .polynomials import poly_to_json, poly_to_text
    from .signpattern import SearchExhausted, construct, format_pattern, parse_pattern

    try:
        signs = parse_pattern(pattern)
    except ValueError as e:
        raise _usage(e) from None
    try:
        result = construct(signs)
    except SearchExhausted as e:
        raise CliError(EXIT_EXHAUSTED, "search exhausted", e) from None
    sv = sign_vector(result.ehrhart)
    if json:
        out = {
            "pattern": pattern,
            "expr": expr_to_json(result.expr),
            "ehrhart": poly_to_json(result.ehrhart.poly, var="t"),
            "sign_vector": list(sv),
            "trace": list(result.trace),
        }
        print(_dumps(out))
        return
    print(f"pattern = {pattern}")
    print(f"expr = {_dumps(expr_to_json(result.expr))}")
    print(f"ehrhart = {poly_to_text(result.ehrhart.poly, var='t')}")
    print(f"sign vector = {format_pattern(sv)}")
    print(f"trace = {' -> '.join(result.trace)}")


@_command("verify", q=_Q, n=_N, tmax=Option(_nonnegative, help="at least 0; defaults to d+2"))
def _verify(q, n, tmax):
    """Compare oracle lattice counts against the closed-form Ehrhart polynomial."""
    from .delta import hstar
    from .ehrhart import from_hstar
    from .oracle import OracleGuardError, count_points

    s = _delta(q, n)
    ehr = from_hstar(hstar(s), s.d)
    tmax = tmax if tmax is not None else s.d + 2
    ok = True
    for t in range(tmax + 1):
        try:
            counted = count_points(s, t).count
        except OracleGuardError as e:
            raise CliError(EXIT_PRECONDITION, "precondition error", e) from None
        predicted = ehr.eval(t)
        status = "ok" if counted == predicted else "MISMATCH"
        print(f"t={t}: oracle={counted} closed-form={predicted} {status}")
        ok = ok and counted == predicted
    return EXIT_OK if ok else EXIT_MISMATCH


# --- entry point --------------------------------------------------------------------


def _run(argv: list[str]) -> int:
    if not argv:
        raise _usage("no command given; 'ehrsign --help' lists the commands")
    name, args = argv[0], argv[1:]
    if name == "--help":
        print(_group_help())
        return EXIT_OK
    if name not in COMMANDS:
        what = "option" if name.startswith("-") else "command"
        raise _usage(f"no such {what} {name!r}")
    fn, options = COMMANDS[name]
    kwargs = _parse(options, args)
    if kwargs is None:
        print(_command_help(name))
        return EXIT_OK
    return fn(**kwargs) or EXIT_OK


def main(argv=None) -> int:
    # Witnesses run to many thousands of digits: lift the int-to-str limit
    # for the integers this CLI computed itself, and restore it on the way out.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    except CliError as e:
        print(f"{e.label}: {e}", file=sys.stderr)
        return e.code
    finally:
        if lift:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
