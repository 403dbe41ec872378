"""Command line front end: one model file, many subcommands, JSON reports.

Every invocation prints one JSON report on stdout with the keys "command",
"details", "status", and "timing_ms", sorted.  Exit codes: 0 when the
computation or check passed, 1 when a mathematical check failed, 2 when the
invocation or its input was malformed.  main() loads the model and builds
the report in one place; an error that ends a run chooses between exit 1 and
2 by the ``status`` of its class (see prolong.errors).  All mathematical
content is rendered as exact rational strings.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time
from fractions import Fraction
from functools import cache

from .atlas import _sigma_compatible, check_cocycle, sample_point, tau_atlas
from .dgroup import (
    DGroup,
    GroupAxiomViolation,
    check_dgroup,
    check_group_axioms,
    dpoint_check,
    stacked_names,
    tau_group,
)
from .errors import DenominatorVanishes, ProlongError, UsageError
from .expr import (
    MAX_LITERAL_DIGITS,
    decimal,
    format_element,
    format_poly,
    format_rational,
    parse_point,
    parse_poly,
    parse_rational,
    read_int,
)
from .groebner import TermOrder, buchberger, normal_form
from .model import load_model_file
from .prolongation import (
    check_nabla_in_tau,
    correspondence_transfer,
    f_del,
    fiber_names,
    fiber_solve,
    nabla,
    tangent_map,
    tangent_variety,
    tau_map,
    tau_variety,
)
from .series import SeriesPoint, TruncSeries, solve_dpoint, variety_residuals


# Largest truncation order solve-series and verify-series accept.  The solve
# is linear in the order for sections of degree one, but the residual check
# multiplies series (quadratic) and the coefficients carry denominators near
# k!: order 1000 takes about 0.2 s for B and 1.1 s for Gm on
# tests/data/model_q.json.  CI runs that Gm solve, and verify-series on 1000
# coefficients, each under a bound of 6 s.
MAX_SERIES_ORDER = 1000

# Largest derivative order nabla accepts.  The derivatives of a point with a
# true rational function of t grow like k!/t^(k+1): order 200 of (t^2, 1/t)
# takes about 0.6 s, order 1000 about 16 s.
MAX_NABLA_ORDER = 200

# Most sample points tau-atlas tests per transition: 200 take about 0.2 s on
# the two-chart atlas P1 of tests/data/model_qt.json.
MAX_SAMPLES = 200


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _term_order(args) -> TermOrder:
    return TermOrder(args.term_order)


def _point(args, field, expected, what):
    values = parse_point(args.init, field)
    if len(values) != expected:
        raise UsageError(
            f"--init must list {expected} values for {what}, got {len(values)}"
        )
    return values


def _fmt_point(values):
    return [format_element(v) for v in values]


def _fmt_map(rmap, names):
    return [format_rational(num, den, names) for num, den in rmap.components]


def _named_section(model, args):
    section = model.section(args.section)
    if section.group_name != args.group:
        raise UsageError(
            f"section {args.section!r} belongs to group {section.group_name!r}, "
            f"not {args.group!r}"
        )
    return section


def _variety_basis(variety, order, cap):
    if not variety.gens:
        return None
    return buchberger(variety.gens, order, degree_cap=cap)


def _cmd_parse(args, model):
    if args.variety is not None:
        names = model.variety(args.variety).var_names
    elif args.vars is not None:
        names = tuple(n.strip() for n in args.vars.split(","))
    else:
        names = ()
    num, den = parse_rational(args.expr, names, model.field)
    canonical = format_rational(num, den, names)
    details = {
        "canonical": canonical,
        "input": args.expr,
        "is_polynomial": den.is_constant,
        "variables": list(names),
    }
    return "pass", details


def _cmd_gb(args, model):
    variety = model.variety(args.variety)
    order = _term_order(args)
    basis = _variety_basis(variety, order, args.degree_cap)
    gens = [] if basis is None else [
        format_poly(g, variety.var_names) for g in basis.gens
    ]
    details = {
        "basis": gens,
        "size": len(gens),
        "term_order": order.kind,
        "variety": args.variety,
    }
    return "pass", details


def _cmd_nf(args, model):
    variety = model.variety(args.variety)
    order = _term_order(args)
    p = parse_poly(args.expr, variety.var_names, model.field)
    basis = _variety_basis(variety, order, args.degree_cap)
    nf = p if basis is None else normal_form(p, basis, degree_cap=args.degree_cap)
    details = {
        "expression": args.expr,
        "is_zero": nf.is_zero,
        "normal_form": format_poly(nf, variety.var_names),
        "variety": args.variety,
    }
    return "pass", details


def _cmd_fdel(args, model):
    named = model.map(args.map)
    image = f_del(named.rmap)
    details = {
        "components": _fmt_map(image, named.var_names),
        "map": args.map,
        "variables": list(named.var_names),
    }
    return "pass", details


def _cmd_tau_map(args, model):
    named = model.map(args.map)
    image = tau_map(named.rmap)
    names = named.var_names + fiber_names(named.var_names)
    details = {
        "components": _fmt_map(image, names),
        "map": args.map,
        "variables": list(names),
    }
    return "pass", details


def _cmd_prolong_variety(args, model):
    variety = model.variety(args.variety)
    prolonged = tangent_variety(variety) if args.kind == "tangent" else tau_variety(variety)
    details = {
        "generators": [
            format_poly(g, prolonged.total.var_names) for g in prolonged.total.gens
        ],
        "kind": args.kind,
        "variables": list(prolonged.total.var_names),
        "variety": args.variety,
    }
    return "pass", details


def _check_order(order, cap):
    if not 0 <= order <= cap:
        raise UsageError(f"--order must be between 0 and {cap}, got {order}")


def _cmd_nabla(args, model):
    _check_order(args.order, MAX_NABLA_ORDER)
    variety = model.variety(args.variety)
    point = _point(args, model.field, variety.nvars, f"variety {args.variety!r}")
    variety.require_point(point)
    sequence = nabla(point, args.order, model.field)
    details = {
        "order": args.order,
        "point": _fmt_point(point),
        "sequence": [_fmt_point(stage) for stage in sequence],
        "variety": args.variety,
    }
    return "pass", details


def _cmd_check_nabla(args, model):
    variety = model.variety(args.variety)
    point = _point(args, model.field, variety.nvars, f"variety {args.variety!r}")
    holds = check_nabla_in_tau(variety, point)
    details = {
        "holds": holds,
        "point": _fmt_point(point),
        "variety": args.variety,
    }
    return ("pass" if holds else "fail"), details


def _cmd_fiber(args, model):
    variety = model.variety(args.variety)
    point = _point(args, model.field, variety.nvars, f"variety {args.variety!r}")
    description = fiber_solve(variety, point, kind=args.kind)
    details = {
        "basis": [_fmt_point(b) for b in description.basis],
        "dimension": description.dim,
        "kind": args.kind,
        "particular": _fmt_point(description.particular),
        "point": _fmt_point(point),
        "variety": args.variety,
    }
    return "pass", details


def _cmd_transfer(args, model):
    corr = model.correspondence(args.correspondence)
    n1 = corr.left.nvars
    n2 = corr.right.nvars
    values = _point(args, model.field, n1 + n2, f"correspondence {args.correspondence!r}")
    transfer = correspondence_transfer(corr, values[:n1], values[n1:])
    details = {
        "correspondence": args.correspondence,
        "invertible": transfer.invertible,
        "matrix": [_fmt_point(row) for row in transfer.forward.matrix],
        "offset": _fmt_point(transfer.forward.offset),
        "point": _fmt_point(values),
        "source_dimension": transfer.source.dim,
        "target_dimension": transfer.target.dim,
    }
    if transfer.inverse is not None:
        details["inverse_matrix"] = [_fmt_point(row) for row in transfer.inverse.matrix]
        details["inverse_offset"] = _fmt_point(transfer.inverse.offset)
    return "pass", details


def _cmd_check_cocycle(args, model):
    atlas = model.atlas(args.atlas)
    report = check_cocycle(atlas)
    details = {"atlas": args.atlas, **report.as_dict()}
    return ("pass" if report.ok else "fail"), details


def _transitions_dict(atlas):
    out = {}
    for (i, j), rmap in sorted(atlas.transitions.items()):
        out[f"{i},{j}"] = _fmt_map(rmap, atlas.coord_names)
    return out


def _cmd_tau_atlas(args, model):
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise UsageError(f"--samples must be between 1 and {MAX_SAMPLES}, got {args.samples}")
    atlas = model.atlas(args.atlas)
    prolonged = tau_atlas(atlas).atlas
    rng = random.Random(args.seed)
    compat = []
    all_ok = True
    for (i, j) in sorted(atlas.transitions):
        phi = atlas.transition(i, j)
        tangent = tangent_map(phi)
        tau = prolonged.transition(i, j)
        tested = 0
        attempts = 0
        ok = True
        while tested < args.samples and attempts < args.samples * 10:
            attempts += 1
            a = sample_point(atlas.field, rng, atlas.dim)
            u = sample_point(atlas.field, rng, atlas.dim)
            try:
                if not _sigma_compatible(phi, tangent, tau, a, u):
                    ok = False
                    break
            except DenominatorVanishes:
                continue
            tested += 1
        witness = None
        if ok and tested < args.samples:
            ok = False
            witness = "no sample point avoided all denominators"
        entry = {"name": f"sigma compatibility ({i},{j})", "ok": ok, "samples": tested}
        if witness is not None:
            entry["witness"] = witness
        compat.append(entry)
        all_ok = all_ok and ok
    details = {
        "atlas": args.atlas,
        "charts": list(prolonged.charts),
        "sigma_compatibility": compat,
        "transitions": _transitions_dict(prolonged),
        "variables": list(prolonged.coord_names),
    }
    return ("pass" if all_ok else "fail"), details


def _cmd_check_group(args, model):
    group = model.group(args.group)
    report = check_group_axioms(group, args.degree_cap, _term_order(args))
    details = {"group": args.group, **report.as_dict()}
    return ("pass" if report.ok else "fail"), details


def _cmd_tau_group(args, model):
    group = model.group(args.group)
    try:
        prolonged = tau_group(group, args.degree_cap, _term_order(args))
    except GroupAxiomViolation as exc:
        return "fail", {"group": args.group, **exc.report.as_dict()}
    total = prolonged.variety
    mult_names = stacked_names(total.var_names, 2)
    details = {
        "group": args.group,
        "identity": _fmt_point(prolonged.identity),
        "inv": _fmt_map(prolonged.group.inv, total.var_names),
        "mult": _fmt_map(prolonged.mult, mult_names),
        "mult_variables": list(mult_names),
        "variables": list(total.var_names),
        "variety_generators": [format_poly(g, total.var_names) for g in total.gens],
    }
    return "pass", details


def _cmd_check_dgroup(args, model):
    group = model.group(args.group)
    section = _named_section(model, args)
    try:
        report = check_dgroup(group, section.section, args.degree_cap, _term_order(args))
    except GroupAxiomViolation as exc:
        report = exc.report
    details = {"group": args.group, "section": args.section, **report.as_dict()}
    return ("pass" if report.ok else "fail"), details


def _cmd_check_dpoint(args, model):
    group = model.group(args.group)
    section = _named_section(model, args)
    point = _point(args, model.field, group.nvars, f"group {args.group!r}")
    holds = dpoint_check(DGroup(group, section.section), point)
    details = {
        "group": args.group,
        "holds": holds,
        "point": _fmt_point(point),
        "section": args.section,
    }
    return ("pass" if holds else "fail"), details


def _series_details(variety, point):
    residuals = variety_residuals(variety, point)
    coefficients = {
        name: [decimal(c) for c in component.coeffs]
        for name, component in zip(variety.var_names, point.components)
    }
    return {
        "coefficients": coefficients,
        "order": point.order,
        "residuals": [[decimal(c) for c in r.coeffs] for r in residuals],
        "residuals_zero": all(r.is_zero for r in residuals),
    }


def _cmd_solve_series(args, model):
    _check_order(args.order, MAX_SERIES_ORDER)
    group = model.group(args.group)
    section = _named_section(model, args)
    initial = parse_point(args.init, model.field)
    point = solve_dpoint(group.variety, section.section.sigma, initial, args.order)
    details = {
        "group": args.group,
        "section": args.section,
        "variety": group.variety.name,
        **_series_details(group.variety, point),
    }
    return ("pass" if details["residuals_zero"] else "fail"), details


def _load_series_file(path, variety):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle, parse_int=_json_integer)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read series file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"series file {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise UsageError(f"series file {path} is not valid JSON: nested too deeply") from None
    if isinstance(doc, dict) and "details" in doc and isinstance(doc["details"], dict):
        doc = doc["details"]
    if not isinstance(doc, dict) or "coefficients" not in doc:
        raise UsageError('series file needs a "coefficients" object')
    table = doc["coefficients"]
    if not isinstance(table, dict):
        raise UsageError('"coefficients" must map variable names to arrays')
    missing = [n for n in variety.var_names if n not in table]
    extra = [n for n in table if n not in variety.var_names]
    if missing or extra:
        raise UsageError(
            f"coefficients must cover exactly {list(variety.var_names)}; "
            f"missing {missing}, unexpected {extra}"
        )
    arrays = [table[n] for n in variety.var_names]
    if not all(isinstance(a, list) for a in arrays):
        raise UsageError('"coefficients" must map variable names to arrays')
    if any(isinstance(c, (list, dict)) for a in arrays for c in a):
        raise UsageError("series coefficients must be strings or numbers")
    lengths = {len(a) for a in arrays}
    if len(lengths) != 1 or 0 in lengths:
        raise UsageError("all coefficient arrays must share one nonzero length")
    (length,) = lengths
    if length - 1 > MAX_SERIES_ORDER:
        raise UsageError(f"series order must be at most {MAX_SERIES_ORDER}, got {length - 1}")
    try:
        components = tuple(TruncSeries([_series_coefficient(c) for c in a]) for a in arrays)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational coefficient: {exc}") from exc
    return SeriesPoint(components)


# What solve-series writes: an integer, or a quotient of integers.  Each has
# at most MAX_LITERAL_DIGITS digits, the bound of an integer literal in an
# expression; at order 1000 the denominators near 1000! have 2568.
_DIGITS = "[0-9]{1,%d}" % MAX_LITERAL_DIGITS
_RATIONAL = re.compile(f"-?{_DIGITS}(/{_DIGITS})?")


def _json_integer(text: str) -> int:
    """A JSON integer of a series file, refused past MAX_LITERAL_DIGITS."""
    if len(text) - text.startswith("-") > MAX_LITERAL_DIGITS:
        raise UsageError(f"series file has an integer of more than {MAX_LITERAL_DIGITS} digits")
    return read_int(text)


def _series_coefficient(c) -> Fraction:
    """A coefficient of a series file: a JSON integer or a string as solve-series
    writes it.  JSON reals and exponents are refused: a real is read through a
    float, and Fraction expands an exponent to all its digits."""
    if type(c) is int:
        return Fraction(c)
    if isinstance(c, str) and _RATIONAL.fullmatch(c):
        num, _, den = c.partition("/")
        return Fraction(read_int(num), read_int(den) if den else 1)
    shown = json.dumps(c)
    if len(shown) > 40:
        shown = shown[:37] + "..."
    raise ValueError(f'{shown} is neither an integer nor a string such as "-3/4"')


def _cmd_verify_series(args, model):
    variety = model.variety(args.variety)
    point = _load_series_file(args.series, variety)
    details = {"variety": args.variety, **_series_details(variety, point)}
    return ("pass" if details["residuals_zero"] else "fail"), details


def _add_model_flag(parser):
    parser.add_argument("-i", "--input", required=True, metavar="FILE",
                        help="model document (JSON)")


class _AtLeastOne(argparse.Action):
    """Store an integer option, refusing a value below 1 as a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            raise argparse.ArgumentError(self, f"must be at least 1, got {value}")
        setattr(namespace, self.dest, value)


def _add_order_flags(parser):
    parser.add_argument("--term-order", choices=("grevlex", "lex"),
                        default="grevlex", help="monomial order")
    parser.add_argument("--degree-cap", type=int, default=40, metavar="N", action=_AtLeastOne,
                        help="abort basis computations above this total degree, at least 1")


def _add_init_flag(parser, help_text):
    parser.add_argument("--init", required=True, metavar="VALUES", help=help_text)


def build_parser():
    parser = _ArgumentParser(
        prog="prolong",
        description="Prolongation calculus over exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="cmd", metavar="SUBCOMMAND")
    sub.required = True

    p = sub.add_parser("parse", help="echo the canonical form of an expression")
    _add_model_flag(p)
    p.add_argument("--expr", required=True, help="expression text")
    group = p.add_mutually_exclusive_group()
    group.add_argument("-v", "--variety", help="read variables from this variety")
    group.add_argument("--vars", metavar="NAMES", help="comma-separated variable names")
    p.set_defaults(handler="_cmd_parse")

    p = sub.add_parser("gb", help="reduced Groebner basis of a variety ideal")
    _add_model_flag(p)
    p.add_argument("-v", "--variety", required=True)
    _add_order_flags(p)
    p.set_defaults(handler="_cmd_gb")

    p = sub.add_parser("nf", help="normal form of a polynomial modulo a variety ideal")
    _add_model_flag(p)
    p.add_argument("-v", "--variety", required=True)
    p.add_argument("--expr", required=True, help="polynomial text")
    _add_order_flags(p)
    p.set_defaults(handler="_cmd_nf")

    p = sub.add_parser("fdel", help="coefficientwise derivative correction of a map")
    _add_model_flag(p)
    p.add_argument("-m", "--map", required=True)
    p.set_defaults(handler="_cmd_fdel")

    p = sub.add_parser("tau-map", help="twisted prolongation of a map")
    _add_model_flag(p)
    p.add_argument("-m", "--map", required=True)
    p.set_defaults(handler="_cmd_tau_map")

    p = sub.add_parser("t-variety", help="tangent prolongation of a variety")
    _add_model_flag(p)
    p.add_argument("-v", "--variety", required=True)
    p.set_defaults(handler="_cmd_prolong_variety", kind="tangent")

    p = sub.add_parser("tau-variety", help="twisted prolongation of a variety")
    _add_model_flag(p)
    p.add_argument("-v", "--variety", required=True)
    p.set_defaults(handler="_cmd_prolong_variety", kind="tau")

    p = sub.add_parser("nabla", help="iterated derivative sequence of a point")
    _add_model_flag(p)
    p.add_argument("-v", "--variety", required=True)
    _add_init_flag(p, "comma-separated point coordinates")
    p.add_argument("--order", type=int, default=1, metavar="R",
                   help=f"number of derivative steps, at most {MAX_NABLA_ORDER}")
    p.set_defaults(handler="_cmd_nabla")

    p = sub.add_parser("check-nabla",
                       help="check that (a, da) lies on the twisted prolongation")
    _add_model_flag(p)
    p.add_argument("-v", "--variety", required=True)
    _add_init_flag(p, "comma-separated point coordinates")
    p.set_defaults(handler="_cmd_check_nabla")

    p = sub.add_parser("fiber", help="affine description of a prolongation fibre")
    _add_model_flag(p)
    p.add_argument("-v", "--variety", required=True)
    _add_init_flag(p, "comma-separated point coordinates")
    p.add_argument("--kind", choices=("tau", "tangent"), default="tau")
    p.set_defaults(handler="_cmd_fiber")

    p = sub.add_parser("transfer",
                       help="fibre transfer along a correspondence at a point pair")
    _add_model_flag(p)
    p.add_argument("-c", "--correspondence", required=True)
    _add_init_flag(p, "left point then right point, comma-separated")
    p.set_defaults(handler="_cmd_transfer")

    p = sub.add_parser("check-cocycle", help="verify atlas transition coherence")
    _add_model_flag(p)
    p.add_argument("-a", "--atlas", required=True)
    p.set_defaults(handler="_cmd_check_cocycle")

    p = sub.add_parser("tau-atlas",
                       help="prolong an atlas and test sigma compatibility at samples")
    _add_model_flag(p)
    p.add_argument("-a", "--atlas", required=True)
    p.add_argument("--seed", type=int, default=0, help="sample generator seed")
    p.add_argument("--samples", type=int, default=20, metavar="N",
                   help=f"sample points per transition, 1 to {MAX_SAMPLES}")
    p.set_defaults(handler="_cmd_tau_atlas")

    p = sub.add_parser("check-group", help="verify the group axioms on the variety")
    _add_model_flag(p)
    p.add_argument("-g", "--group", required=True)
    _add_order_flags(p)
    p.set_defaults(handler="_cmd_check_group")

    p = sub.add_parser("tau-group", help="prolong a group law")
    _add_model_flag(p)
    p.add_argument("-g", "--group", required=True)
    _add_order_flags(p)
    p.set_defaults(handler="_cmd_tau_group")

    p = sub.add_parser("check-dgroup",
                       help="verify a section as a D-group structure")
    _add_model_flag(p)
    p.add_argument("-g", "--group", required=True)
    p.add_argument("-s", "--section", required=True)
    _add_order_flags(p)
    p.set_defaults(handler="_cmd_check_dgroup")

    p = sub.add_parser("check-dpoint",
                       help="check the sharp-point condition sigma(a) = da")
    _add_model_flag(p)
    p.add_argument("-g", "--group", required=True)
    p.add_argument("-s", "--section", required=True)
    _add_init_flag(p, "comma-separated point coordinates")
    p.set_defaults(handler="_cmd_check_dpoint")

    p = sub.add_parser("solve-series",
                       help="integrate the section flow in truncated power series")
    _add_model_flag(p)
    p.add_argument("-g", "--group", required=True)
    p.add_argument("-s", "--section", required=True)
    _add_init_flag(p, "comma-separated rational initial values")
    p.add_argument("--order", type=int, required=True, metavar="N",
                   help=f"truncation order, at most {MAX_SERIES_ORDER}")
    p.set_defaults(handler="_cmd_solve_series")

    p = sub.add_parser("verify-series",
                       help="evaluate variety generators on a stored series point")
    _add_model_flag(p)
    p.add_argument("-v", "--variety", required=True)
    p.add_argument("--series", required=True, metavar="FILE",
                   help="JSON file with a coefficients table")
    p.set_defaults(handler="_cmd_verify_series")

    return parser


# The parser main reads, built once per process: a parse leaves it unchanged.
_parser = cache(build_parser)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = "prolong " + " ".join(argv) if argv else "prolong"
    started = time.perf_counter()
    try:
        args = _parser().parse_args(argv)
        # The parser names the handler, so that the function bound now runs,
        # not the one bound when the shared parser was built.
        handler = globals()[args.handler]
        status, details = handler(args, load_model_file(args.input))
    except (ProlongError, ValueError) as exc:
        status = exc.status if isinstance(exc, ProlongError) else "error"
        details = {"error": type(exc).__name__, "message": str(exc)}
        if status == "error":
            print(str(exc), file=sys.stderr)
    except Exception as exc:
        # Last resort: an exception no error class accounts for is a defect
        # of the package, not of the input.  It still gets its one report,
        # as a malformed run, with the traceback on stderr.  traceback is
        # imported here so that the common runs do not pay for it at start-up.
        import traceback

        status = "error"
        details = {"error": type(exc).__name__, "message": str(exc)}
        traceback.print_exc()
    report = {
        "command": command,
        "details": details,
        "status": status,
        "timing_ms": int((time.perf_counter() - started) * 1000),
    }
    try:
        print(json.dumps(report, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # The reader closed stdout.  The verdict stands; stdout now points at
        # the null device, so the flush at interpreter exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return {"pass": 0, "fail": 1, "error": 2}[status]


if __name__ == "__main__":
    sys.exit(main())
