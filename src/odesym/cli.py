"""Command-line front end.

Subcommands construct the maximal-symmetry objects (generators, equations,
Lagrangians, first integrals), run the three symmetry checks, apply point
transformations, and reproduce the bundled verification cases.  Reports
are emitted as text or as JSON with the fixed claim schema
{case, claims: [{id, status, residual, paper_ref, millis}]}.

Exit codes:

- 0: every claim verified (an exact zero), or the object was built;
- 1: a claim was refuted, certified by a nonzero witness;
- 2: usage or parse error, including an order outside the supported range,
  a denominator that vanishes (in the ring, on the source solutions or at
  ``--q``, in the input or in a check), an undefined value (1/0, ln(0)) and
  a ``--json`` path that cannot be written;
- 3: undecided: no witness was found for a nonzero residual, or the
  kernel could not decide (inconclusive zero test, inexact integration,
  failed elimination, numeric singularity, jet order limit) or failed
  internally.  Never a refutation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import traceback

import sympy as sp

from . import casebook, exprcore, maxsym, noether, transform
from .exprcore import (
    COEF_Q,
    SOL_U,
    SOL_V,
    X,
    Inconclusive,
    UndefinedValue,
    _generators,
    canon,
)
from .grammar import parse, render
from .jetcalc import DiffEq, JetOrderLimit, Lagrangian, NotExact, VectorField

# Kernel outcomes that leave a claim undecided (exit code 3).
_UNDECIDED = (
    Inconclusive,
    NotExact,
    maxsym.EliminationFailed,
    casebook.SingularityEncountered,
    JetOrderLimit,
)

# The ladders u, u', ..., v, v', ... and q, q', ...
_SOLUTIONS = frozenset(SOL_U) | frozenset(SOL_V)
_Q_LADDER = frozenset(COEF_Q)

# Options whose value is an expression and may start with "-".
_EXPRESSION_OPTIONS = ("--vf", "--q", "--eq", "--lagrangian", "--integral", "--map")


class UsageError(ValueError):
    pass


@contextlib.contextmanager
def _usage_errors(option=None, where="as written"):
    """A ValueError or ZeroDivisionError raised while the input is read is
    a usage error: a parse error, a malformed object, a singular map or a
    denominator that vanishes.  An undefined value (1/0, ln(0)) and a
    vanishing denominator are those of the option's value, where it is
    read, when option is given."""
    try:
        yield
    except UndefinedValue as err:
        raise UsageError(f"{option} is undefined {where}" if option else str(err)) from err
    except ZeroDivisionError as err:
        raise UsageError(f"a denominator of {option} vanishes {where}" if option else str(err)) from err
    except ValueError as err:
        raise UsageError(str(err)) from err


def _parse_expr(text: str, option=None) -> sp.Expr:
    """text parsed and checked against the grammar: an error is a usage
    error, and an undefined value names option."""
    with _usage_errors(option):
        e = parse(text)
        _generators(e)  # validates the elementary-function grammar
    return e


def _parse_vf(text: str) -> VectorField:
    parts = text.split(";")
    if len(parts) != 2:
        raise UsageError('vector field must be given as "<xi>;<psi>"')
    with _usage_errors():
        vf = VectorField(_parse_expr(parts[0], "--vf"), _parse_expr(parts[1], "--vf"))
        vf.pairs  # the first lift, which the checks reuse: a hidden zero denominator is one of the input
    return vf


def _parse_map(text: str) -> transform.PointTransformation:
    pieces = {}
    for chunk in text.split(";"):
        if "=" not in chunk:
            raise UsageError('map must be given as "z=<expr>; w=<expr>"')
        name, _, rhs = chunk.partition("=")
        if name.strip() in pieces:
            raise UsageError('map must define exactly z and w')
        pieces[name.strip()] = _parse_expr(rhs.strip(), "--map")
    if set(pieces) != {"z", "w"}:
        raise UsageError('map must define exactly z and w')
    with _usage_errors():  # SingularMap, or a zero denominator of the input
        return transform.PointTransformation(pieces["z"], pieces["w"])


def _parse_q(text):
    """The concrete coefficient q(x) of ``--q``, or None without one: a
    function of x and the named parameters, nothing else."""
    if text is None:
        return None
    q = _parse_expr(text, "--q")
    extra = q.free_symbols - exprcore._PARAM_SET - {X}
    if extra:
        names = ", ".join(sorted(map(str, extra)))
        raise UsageError(f"--q must be a function of x and the parameters only; it uses {names}")
    return q


def _at_q(q, value, option):
    """value (an expression or a pair) at the concrete coefficient q of
    ``--q``: as it is without one or when it holds no q symbol, else the
    canonical pair with q, q', ... substituted.  With ``--q``, u and v are
    refused, and a denominator that vanishes at q, or a value of option
    undefined there, is a usage error."""
    if q is None:
        return value
    gens = _generators(value)
    if gens & _SOLUTIONS:
        raise UsageError("--q fixes a concrete coefficient; inputs must not use u or v")
    if not gens & _Q_LADDER:
        return value
    with _usage_errors(option, "at --q"):
        return maxsym._specialized(value, q)


def _field_at_q(q, vf: VectorField) -> VectorField:
    """vf with :func:`_at_q` applied to both coefficient pairs: vf itself
    when neither changes."""
    xi, psi = (_at_q(q, c, "--vf") for c in vf.pairs)
    return vf if xi is vf.pairs[0] and psi is vf.pairs[1] else VectorField(xi, psi)


def _on_solutions(ctx, option, *pairs) -> None:
    """Reduce the pairs of option's value by the symbolic context ctx, if
    any: a denominator that vanishes on the source solutions (u'' + q u,
    say), or a value undefined there, is a usage error."""
    with _usage_errors(option, "on the source solutions"):
        for pair in pairs if ctx is not None else ():
            ctx._reduce_pair(pair)


def _vanishing(ctx) -> UsageError:
    """The usage error of a check or a first integral that divides by zero:
    a denominator of the input vanishes on the source solutions, or at
    ``--q`` when ctx is None."""
    where = "on the source solutions" if ctx is not None else "at --q"
    return UsageError(f"a denominator vanishes {where}")


def _exit_code(statuses) -> int:
    """1 if any claim is refuted, else 3 if any is undecided, else 0."""
    statuses = set(statuses)
    return 1 if "refuted-witness" in statuses else 3 if "undecided" in statuses else 0


def _object_report(objects, status="verified") -> dict:
    claims = [
        {"id": name, "status": status, "residual": render(expr), "paper_ref": "", "millis": 0.0}
        for name, expr in objects
    ]
    return {"case": None, "claims": claims}


def emit_report(report: dict, fmt: str = "text") -> str:
    """Serialize a report; field order is fixed for byte-stable output."""
    if fmt == "json":
        return json.dumps(report, indent=2)
    lines = []
    case = report.get("case")
    if case:
        lines.append(f"case {case}")
    for claim in report.get("claims", []):
        status = claim["status"]
        line = f"  {claim['id']}: {status}"
        if status != "verified" and claim["residual"] not in ("0", ""):
            line += f"  residual = {claim['residual']}"
        if claim.get("paper_ref"):
            line += f"  [{claim['paper_ref']}]"
        lines.append(line)
    if not report.get("claims"):
        lines.append("  (no claims)")
    return "\n".join(lines)


def _deliver(report, args) -> None:
    path = getattr(args, "json", None)
    if path:
        payload = emit_report(report, "json")
        if path == "-":
            print(payload)
        else:
            try:
                with open(path, "w") as fh:
                    fh.write(payload + "\n")
            except OSError as err:
                raise UsageError(f"cannot write --json {path}: {err}") from err
            print(f"wrote {path}")
    else:
        print(emit_report(report, "text"))


def _emit(args, objects, lines) -> int:
    """A built object's output: its (name, expression) report under
    ``--json``, else its text lines."""
    if args.json:
        _deliver(_object_report(objects), args)
    else:
        print("\n".join(lines))
    return 0


def _check_json_path(path) -> None:
    """Reject a --json PATH that is a directory or lies in no existing
    directory, before any work; "-" is stdout."""
    if not path or path == "-":
        return
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"--json {path} is not a file in an existing directory")


def _cmd_generators(args) -> int:
    gens = maxsym.generators(args.n).by_name()
    return _emit(
        args,
        ((f"{name}.{p}", getattr(vf, p)) for name, vf in gens.items() for p in ("xi", "psi")),
        (f"{name} = ({render(vf.xi)}) d/dx + ({render(vf.psi)}) d/dy" for name, vf in gens.items()),
    )


def _cmd_build_lode(args) -> int:
    q = _parse_q(args.q)
    eq = maxsym.build_lode(args.n)
    delta = eq.delta if q is None else _at_q(q, eq.pair, "--q")
    return _emit(args, [(f"Delta{args.n}", delta)], [render(delta)])


def _cmd_lagrangian(args) -> int:
    density = getattr(maxsym, f"{args.kind}_lagrangian")(args.n).density
    return _emit(args, [(f"L{args.n}.{args.kind}", density)], [render(density)])


def _cmd_check(args) -> int:
    vf = _parse_vf(args.vf)
    q = _parse_q(args.q)
    if args.order is None:
        raise UsageError("check needs an explicit --order matching the input")
    if args.kind == "variational":
        if args.lagrangian is None:
            raise UsageError("variational checks need --lagrangian <expr> --order m")
        text, option, build, checker = args.lagrangian, "--lagrangian", Lagrangian, noether.variational_check
    else:
        if args.eq is None:
            raise UsageError(f"{args.kind} checks need --eq <expr> --order n")
        text, option, build = args.eq, "--eq", DiffEq
        checker = noether.lie_symmetry_check if args.kind == "lie" else noether.divergence_check
    expr = _parse_expr(text, option)
    ctx = maxsym.SourceContext.make_symbolic() if q is None else None
    with _usage_errors():
        expr, vf = _at_q(q, expr, option), _field_at_q(q, vf)
        obj = build(expr, args.order)
        # the first lifts of the input, which the check reuses
        _on_solutions(ctx, "--vf", *vf.pairs)
        _on_solutions(ctx, option, obj.pair)
    try:
        verdict = checker(vf, obj, ctx)
    except ZeroDivisionError as err:
        raise _vanishing(ctx) from err
    status = casebook.claim_status(verdict.holds, verdict.pair)
    _deliver(_object_report([(f"{args.kind}-symmetry", verdict.witness)], status), args)
    return _exit_code([status])


def _cmd_first_integral(args) -> int:
    vf = _parse_vf(args.vf)
    q = _parse_q(args.q)
    ctx = maxsym.SourceContext.make_symbolic()
    eq = maxsym.build_lode(args.n, ctx)
    if q is not None:
        vf, eq, ctx = _field_at_q(q, vf), DiffEq(_at_q(q, eq.pair, "--q"), args.n), None
    _on_solutions(ctx, "--vf", *vf.pairs)
    try:
        result = noether.first_integral(vf, eq, ctx)
    except ZeroDivisionError as err:
        raise _vanishing(ctx) from err
    except noether.NotADivergenceSymmetry as err:
        print(f"not a divergence symmetry: {err}", file=sys.stderr)
        return _exit_code([casebook.claim_status(False, err.pair)])
    return _emit(args, [("F", result.expr), ("Q", result.q)], [render(result.expr)])


def _cmd_transform(args) -> int:
    sigma = _parse_map(args.map)
    given = [opt for opt in (args.eq, args.lagrangian, args.vf, args.integral) if opt is not None]
    if len(given) != 1:
        raise UsageError("give exactly one of --eq, --lagrangian, --vf, --integral")
    with _usage_errors():
        if args.eq is not None:
            if args.order is None:
                raise UsageError("--eq needs --order n")
            eq = DiffEq(_parse_expr(args.eq, "--eq"), args.order)
            objects = [("Delta", canon(transform.transform_equation(eq, sigma).pair))]
        elif args.lagrangian is not None:
            if args.order is None:
                raise UsageError("--lagrangian needs --order m")
            lag = Lagrangian(_parse_expr(args.lagrangian, "--lagrangian"), args.order)
            objects = [("L", transform.transform_lagrangian(lag, sigma).density)]
        elif args.vf is not None:
            vf = transform.pushforward(_parse_vf(args.vf), sigma)
            objects = [("xi", vf.xi), ("psi", vf.psi)]
        else:
            objects = [("F", transform.transform_first_integral(_parse_expr(args.integral, "--integral"), sigma))]
    return _emit(args, objects, (f"{name} = {render(expr)}" for name, expr in objects))


def _cmd_reproduce(args) -> int:
    reports = casebook.run_all() if args.case == "all" else [casebook.run_case(args.case)]
    merged = (
        reports[0].as_dict()
        if len(reports) == 1
        else {"case": "all", "claims": [c for r in reports for c in r.as_dict()["claims"]]}
    )
    _deliver(merged, args)
    code = _exit_code(c.status for r in reports for c in r.claims)
    summary = {0: "all claims verified", 1: "refutations found", 3: "undecided claims found"}[code]
    print(summary, file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the odesym command line."""
    parser = argparse.ArgumentParser(
        prog="odesym",
        description="Symmetries, Lagrangians and first integrals of ODEs of maximal symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generators", help="the n+4 point-symmetry generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("build-lode", help="monic normal-form equation of maximal symmetry")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", metavar="EXPR")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_build_lode)

    p = sub.add_parser("lagrangian", help="canonical, transformed or natural Lagrangian")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("canonical", "transformed", "natural"), required=True)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_lagrangian)

    p = sub.add_parser("check", help="Lie point / variational / divergence symmetry check")
    p.add_argument("--kind", choices=("lie", "variational", "divergence"), required=True)
    p.add_argument("--vf", required=True, metavar='"XI;PSI"')
    p.add_argument("--eq", metavar="EXPR")
    p.add_argument("--lagrangian", metavar="EXPR")
    p.add_argument("--order", type=int)
    p.add_argument("--q", metavar="EXPR")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("first-integral", help="Noether first integral of a divergence symmetry")
    p.add_argument("--vf", required=True, metavar='"XI;PSI"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", metavar="EXPR")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_first_integral)

    p = sub.add_parser("transform", help="apply a point transformation")
    p.add_argument("--map", required=True, metavar='"z=EXPR; w=EXPR"')
    p.add_argument("--eq", metavar="EXPR")
    p.add_argument("--lagrangian", metavar="EXPR")
    p.add_argument("--vf", metavar='"XI;PSI"')
    p.add_argument("--integral", metavar="EXPR")
    p.add_argument("--order", type=int)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("reproduce", help="run a verification case (C1..C7) or all")
    p.add_argument("case", choices=(*casebook.CASE_IDS, "all"))
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_reproduce)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads, built once per process: ``parse_args``
    only reads it, on the usage-error path too."""
    return build_parser()


def _attach_expression_values(argv) -> list:
    """Rewrite "--eq VALUE" as "--eq=VALUE" for the expression options, so
    that a value starting with "-" (such as "-x;y") is not taken for an
    option; a following "--name" is left alone as a missing value."""
    out = list(argv)
    i = 0
    while i < len(out) - 1:
        if out[i] in _EXPRESSION_OPTIONS and not out[i + 1].startswith("--"):
            out[i : i + 2] = [f"{out[i]}={out[i + 1]}"]
        i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_attach_expression_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_json_path(getattr(args, "json", None))
        if getattr(args, "n", None) is not None:
            maxsym._order(args.n, even=args.command == "lagrangian")
        return args.func(args)
    except (UsageError, maxsym.BadOrder, maxsym.OddOrder) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _UNDECIDED as err:
        print(f"undecided: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        print("undecided: internal error", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
