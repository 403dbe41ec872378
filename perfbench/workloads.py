"""The benchmark's four workloads: seeded inputs, timed calls, output checks.

Each workload builder takes a seed and returns a list of Op.  An op's
``run`` is the only code that is timed; ``digest`` and the op's ``check``
run outside the timed region.  ``check`` is an oracle that does not trust
the timed path: it re-derives the answer through an identity or a
hand-known verdict and returns None when the output is right, else a
one-line reason.

Inputs reach the package only through its public API.  Every op builds its
own objects (varieties, groups, maps, model files), so no object cached by
an earlier op can stand in for work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from prolong import (
    Q,
    QT,
    AffineVariety,
    Correspondence,
    FieldElement,
    MultiPoly,
    PolyMap,
    buchberger,
    correspondence_transfer,
    derive_point,
    f_del,
    fiber_solve,
    is_groebner,
    normal_form,
    parse_poly,
    solve_dpoint,
    tangent_map,
    tau_map,
    tau_variety,
    variety_residuals,
)
from prolong.cli import main as cli_main

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Raised:
    """Output of an op that ended in an exception: its class name."""

    error: str


@dataclass
class Op:
    name: str
    # Canonical text of the op's inputs; equal seeds give equal texts.
    inputs: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # True when the inputs do not depend on the seed, so the committed
    # reference digest applies to every seed.
    fixed: bool = False
    # Name of the ProlongError subclass this op is expected to raise.
    # Any other exception fails the op.
    expect_error: str | None = None


def call(op: Op):
    """Run an op; an exception becomes a Raised output, which verify() fails
    unless the op expects that ProlongError."""
    try:
        return op.run()
    except Exception as exc:  # any crash is a failed op, not a failed benchmark
        return Raised(type(exc).__name__)


def verify(op: Op, out) -> str | None:
    """The op's verdict check followed by its oracle."""
    if isinstance(out, Raised):
        if out.error == op.expect_error:
            return None
        return f"raised {out.error}"
    if op.expect_error is not None:
        return f"expected {op.expect_error}, got a result"
    return op.check(out)


# ----------------------------------------------------------------------
# canonical text of outputs, for digests


def _elem_text(e: FieldElement) -> str:
    return "(" + ",".join(map(str, e.num)) + ")/(" + ",".join(map(str, e.den)) + ")"


def _poly_text(p: MultiPoly) -> str:
    return "{" + ";".join(f"{m}:{_elem_text(c)}" for m, c in sorted(p.terms.items())) + "}"


def _text(x) -> str:
    if isinstance(x, MultiPoly):
        return _poly_text(x)
    if isinstance(x, FieldElement):
        return _elem_text(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Raised):
        return f"raised:{x.error}"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k!r}:{_text(v)}" for k, v in sorted(x.items())) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_text(v) for v in x) + "]"
    if hasattr(x, "components"):  # PolyMap, RationalMap, SeriesPoint
        return type(x).__name__ + _text(list(x.components))
    if hasattr(x, "coeffs"):  # TruncSeries
        return _text(list(x.coeffs))
    if hasattr(x, "gens"):  # GroebnerBasis, AffineVariety
        return type(x).__name__ + _text(list(x.gens))
    return repr(x)


def digest(out) -> str:
    return hashlib.sha256(_text(out).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# shared helpers


def _frac(rng: random.Random, lo: int = -3, hi: int = 3, max_den: int = 3) -> Fraction:
    while True:
        v = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if v:
            return v


# Seeded rescaling factors for variables, generators and parameters.
SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2),
          Fraction(-1, 2))


def _qt(coeffs) -> FieldElement:
    """The element sum(c_k t^k) of Q(t)."""
    return sum((QT.t**k * c for k, c in enumerate(coeffs)), QT.zero)


def _names(n: int) -> tuple[str, ...]:
    return tuple("xyzw"[:n])


# ----------------------------------------------------------------------
# ideal-gb


def katsura_text(n: int) -> tuple[tuple[str, ...], list[str]]:
    names = tuple(f"u{i}" for i in range(n))
    top = n - 1

    def u(i: int) -> str | None:
        i = abs(i)
        return names[i] if i <= top else None

    gens = [" + ".join([names[0]] + [f"2*{names[i]}" for i in range(1, n)]) + " - 1"]
    for m in range(top):
        terms = [
            f"{u(i)}*{u(m - i)}"
            for i in range(-top, top + 1)
            if u(i) is not None and u(m - i) is not None
        ]
        gens.append(" + ".join(terms) + f" - {names[m]}")
    return names, gens


def cyclic_text(n: int) -> tuple[tuple[str, ...], list[str]]:
    names = tuple(f"u{i}" for i in range(n))
    gens = [
        " + ".join("*".join(names[(i + k) % n] for k in range(d)) for i in range(n))
        for d in range(1, n)
    ]
    gens.append("*".join(names) + " - 1")
    return names, gens


# Seeded ideals over Q in 3-4 variables: 2-4 generators of degree <= 3,
# each with a constant term added.  Supports were drawn once and kept where
# the basis cost varied little with the coefficients (4-100 ms per basis on
# a shared 2-core x86 VM).  Each template's coefficients are fixed; the seed
# flips the sign of each variable and generator.  The flipped ideal has the
# flipped basis with coefficients of the same height, so the seed changes
# the ideal, its basis and the normal forms but not the work.  (Rescaling by
# 2 or 1/2 changed coefficient heights and moved the median op by 9 % from
# seed to seed.)
IDEAL_TEMPLATES = (
    (4, [["x^2", "z", "x"], ["w^2", "x*w"]]),
    (3, [["x^2*y"], ["z", "y", "x^2"]]),
    (4, [["y*z", "w"], ["y^2"]]),
    (3, [["y^2", "y", "y*z"], ["x", "x^2"], ["x*z^2"]]),
    (3, [["y"], ["y*z", "y"], ["x", "z", "y^2"]]),
    (4, [["w^2", "z^2*w"], ["x*w", "y^2"], ["y*w"]]),
    (4, [["y", "y*w"], ["x*z^2"], ["w^2", "y*z", "x^2"]]),
    (3, [["x*z"], ["x*y*z", "z", "y*z^2"]]),
    (3, [["z^2", "x"], ["y", "z", "x*y"], ["x*z^2"], ["x"]]),
    (4, [["y^2", "y", "y*z"], ["y*z^2", "x*y*w", "x*w"], ["z"]]),
    (4, [["z", "x^2", "y^2"], ["z^2", "z*w", "x^2"], ["z*w^2"], ["z*w", "x*z", "w"]]),
    (4, [["y*z", "x*z*w", "z^2*w"], ["y*z"], ["z*w", "x^2"]]),
    (3, [["y^2", "z", "x*z"], ["y^2", "x"], ["x*z", "x", "z^2"], ["z^3"]]),
    (4, [["x*y^2", "y^2*z", "x^2*y"], ["z*w", "x^2*w", "y*w"], ["z^2"]]),
    (3, [["z^3", "x*z"], ["x*y", "y"], ["z", "x*y"], ["y", "x^2"]]),
    (3, [["x*y", "x^2"], ["z^2", "x*z"], ["z", "x*y", "z^2"]]),
    (3, [["x^2", "x", "y^2"], ["x*z", "x*y"], ["z", "x*z"], ["x^2*y", "z", "x*z"]]),
)
# Seeded copies per template.  The last template costs about as much as
# cyclic-4; two extra copies make a cluster of six ops around p90, so the
# percentile falls inside it rather than on its lowest member.
IDEAL_COPIES = (3,) * (len(IDEAL_TEMPLATES) - 1) + (5,)
COEFFS = (-3, -2, -1, 1, 2, 3)
SIGNS = (1, -1)
NF_POLYS = 3


def _exponents(term: str, names: tuple[str, ...]) -> list[int]:
    exps = [0] * len(names)
    for factor in term.split("*"):
        var, _, power = factor.partition("^")
        exps[names.index(var)] += int(power or 1)
    return exps


def _scaled_gen(base: list[int], terms: list[str], names, scale, mult) -> str:
    parts = [f"({base[-1] * mult})"]
    for c, term in zip(base, terms):
        k = c * mult * math.prod(s**e for s, e in zip(scale, _exponents(term, names)))
        parts.insert(-1, f"({k})*{term}")
    return " + ".join(parts)


def _nf_polys(crng: random.Random, names: tuple[str, ...]):
    """Coefficients (constant last) and terms of the polynomials to reduce."""
    out = []
    for _ in range(NF_POLYS):
        terms = set()
        while len(terms) < 4:
            exps = [crng.randint(0, 2) for _ in names]
            if any(exps):
                terms.add("*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e))
        out.append(([crng.choice(COEFFS) for _ in range(5)], sorted(terms)))
    return out


def _lead_divides_any(r: MultiPoly, leads) -> bool:
    return any(all(a <= b for a, b in zip(lm, m)) for m in r.terms for lm in leads)


def _ideal_op(name, names, gen_texts, nf_texts, degree_cap=40, fixed=False, expect=None):
    gens = [parse_poly(g, names, Q) for g in gen_texts]
    polys = [parse_poly(p, names, Q) for p in nf_texts]

    def run():
        gb = buchberger(gens, degree_cap=degree_cap)
        return gb, [normal_form(p, gb) for p in polys]

    def check(out):
        gb, nfs = out
        if not is_groebner(gb.gens):
            return "basis fails Buchberger's criterion"
        for g in gens:
            if not normal_form(g, gb).is_zero:
                return "an input generator does not reduce to zero"
        leads = [g.lead(gb.order.key)[0] for g in gb.gens]
        for p, r in zip(polys, nfs):
            if _lead_divides_any(r, leads):
                return "a normal form has a reducible term"
            if not normal_form(p - r, gb).is_zero:
                return "a normal form left the coset"
        return None

    inputs = f"{'; '.join(gen_texts)} | {'; '.join(nf_texts)} | cap {degree_cap}"
    return Op(name, inputs, run, check, fixed=fixed, expect_error=expect)


def build_ideal_gb(seed: int) -> list[Op]:
    templates = []
    for k, (n, supports) in enumerate(IDEAL_TEMPLATES):
        crng = random.Random(1000 + k)
        gens = [[crng.choice(COEFFS) for _ in range(len(terms) + 1)] for terms in supports]
        templates.append((list(zip(gens, supports)), _nf_polys(crng, _names(n))))
    rng = random.Random(seed)
    ops = []
    for copy in range(max(IDEAL_COPIES)):
        for k, (n, _) in enumerate(IDEAL_TEMPLATES):
            if copy >= IDEAL_COPIES[k]:
                continue
            names = _names(n)
            signs = [rng.choice(SIGNS) for _ in names]
            gens, nfs = (
                [_scaled_gen(c, terms, names, signs, rng.choice(SIGNS)) for c, terms in polys]
                for polys in templates[k]
            )
            ops.append(_ideal_op(f"ideal{k:02d}.{copy}", names, gens, nfs))
    fixed_rng = random.Random(-1)
    for label, (names, gens) in (
        ("katsura4", katsura_text(4)),
        ("katsura5", katsura_text(5)),
        ("cyclic4", cyclic_text(4)),
    ):
        nfs = [_scaled_gen(c, terms, names, [1] * len(names), 1)
               for c, terms in _nf_polys(fixed_rng, names)]
        ops.append(_ideal_op(label, names, gens, nfs, fixed=True))
    names, gens = katsura_text(4)
    ops.append(_ideal_op("katsura4.cap2", names, gens, [], degree_cap=2, fixed=True,
                         expect="DegreeCapExceeded"))
    return ops


# ----------------------------------------------------------------------
# series-flow

# (group, order) per op.  The cost grows as the cube of the order and Ga
# costs about 0.4 of B, Gm about 0.9.  The slots form cost clusters so that
# the median op falls inside one (B and Gm at 12, Ga at 16: ~33 ms each) and
# p90 inside another (B and Gm at 20: ~0.3 s), not on a gap between two
# ops, where a little noise would move the percentile far.
SERIES_SLOTS = (
    [(g, o) for g in ("Ga", "Gm", "B") for o in (4, 6, 8, 10, 11)]
    + [(g, 12) for g in ("Gm", "B") for _ in range(6)] + [("Ga", 16)] * 6
    + [(g, 20) for g in ("Gm", "B") for _ in range(2)]
    + [(g, 40) for g in ("Ga", "Gm", "B")]
)
_Q_MODEL_GROUPS = {
    # variety generators over Q, copied from tests/data/model_q.json
    "Ga": (("x",), ()),
    "Gm": (("x", "w"), ("x*w - 1",)),
    "B": (("x", "y", "w"), ("x*w - 1",)),
}


def _series_oracle(group, params, init, order):
    """Coefficients of the exact flow, from closed forms in plain Fraction."""
    fact = [math.factorial(k) for k in range(order + 1)]
    if group == "Ga":
        (c,), (a0,) = params, init
        return [[a0 * c**k / fact[k] for k in range(order + 1)]]
    if group == "Gm":
        (c,), (x0, w0) = params, init
        return [
            [x0 * c**k / fact[k] for k in range(order + 1)],
            [w0 * (-c) ** k / fact[k] for k in range(order + 1)],
        ]
    a, b = params
    x0, y0, w0 = init
    beta = b * (1 - x0)
    shift = y0 + beta / a
    ys = [y0] + [shift * a**k / fact[k] for k in range(1, order + 1)]
    zeros = [Fraction(0)] * order
    return [[x0] + zeros, ys, [w0] + zeros]


def _series_op(name, group, params, init, order):
    names, gen_texts = _Q_MODEL_GROUPS[group]
    variety = AffineVariety(group + "V", Q, names, tuple(parse_poly(g, names, Q) for g in gen_texts))
    if group == "Ga":
        sigma_texts = [f"({params[0]})*x"]
    elif group == "Gm":
        sigma_texts = [f"({params[0]})*x", f"({-params[0]})*w"]
    else:
        sigma_texts = ["0", f"({params[0]})*y + ({params[1]})*(1 - x)", "0"]
    sigma = PolyMap(Q, len(names), tuple(parse_poly(s, names, Q) for s in sigma_texts))

    def run():
        point = solve_dpoint(variety, sigma, init, order)
        return point, variety_residuals(variety, point)

    def check(out):
        point, residuals = out
        if any(not r.is_zero for r in residuals):
            return "nonzero residual"
        want = _series_oracle(group, params, init, order)
        if [list(s.coeffs) for s in point.components] != want:
            return "coefficients differ from the closed form"
        return None

    return Op(name, f"{group} {sigma_texts} {init} {order}", run, check)


def build_series_flow(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for slot, (group, base) in enumerate(SERIES_SLOTS):
        # only the top order is seeded: one order more moves a mid-ladder op
        # by a quarter, which would move the percentiles with the seed
        order = base + rng.randint(0, 1) if base == 40 else base
        c = rng.choice(SCALES)
        x0 = _frac(rng)
        if group == "Ga":
            params, init = (c,), (x0,)
        elif group == "Gm":
            params, init = (c,), (x0, 1 / x0)
        else:
            params, init = (c, rng.choice(SCALES)), (x0, _frac(rng), 1 / x0)
        ops.append(_series_op(f"{slot:02d}.{group}.o{base}", group, params, init, order))
    return ops


# ----------------------------------------------------------------------
# qt-prolong

# Shapes of the seeded map pairs F: K^n -> K^m and G: K^m -> K^p over
# Q(t).  Per shape: (n, m, p, degree of F, degree of G).  Supports,
# coefficients (t-degree <= 2) and a base point of rational functions are
# drawn once from a fixed generator.  As for ideal-gb, the seed rescales the
# variables and outputs of F, G and the hypersurface, and the point to
# match: the inputs change, the work per op hardly does.
QT_SHAPES = (
    (1, 1, 1, 3, 2), (1, 2, 1, 2, 2), (1, 3, 1, 2, 1), (2, 1, 1, 2, 2),
    (2, 1, 2, 3, 1), (2, 2, 1, 2, 2), (2, 2, 2, 1, 2), (2, 3, 1, 2, 1),
    (3, 1, 1, 2, 2), (3, 2, 1, 1, 2), (3, 1, 2, 3, 1), (1, 2, 2, 1, 2),
)
QT_COPIES = 3
_SUPPORT_SEED = 20230526


def _monomials(n: int, deg: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [(e,) + rest for e in range(deg + 1) for rest in _monomials(n - 1, deg - e)]


def _support(srng: random.Random, n: int, deg: int, count: int):
    """Monomials and their Q[t] coefficients, for one component."""
    top = [m for m in _monomials(n, deg) if sum(m) == deg]
    rest = [m for m in _monomials(n, deg) if sum(m) < deg]
    monos = [srng.choice(top)] + srng.sample(rest, min(count - 1, len(rest)))
    return [(m, [_frac(srng, max_den=2) for _ in range(srng.randint(1, 3))]) for m in monos]


def _scaled_poly(n: int, support, scale, mult) -> MultiPoly:
    """The polynomial mult * P(scale * x) for P given by its support."""
    terms = {}
    for mono, coeffs in support:
        k = mult * math.prod(s**e for s, e in zip(scale, mono))
        terms[mono] = _qt([c * k for c in coeffs])
    return MultiPoly(QT, n, terms)


def _base_point(srng: random.Random, n: int):
    """Genuine rational functions (a + b t)/(c + t) with c != 0, as triples."""
    return [(_frac(srng), _frac(srng), _frac(srng, 1, 3)) for _ in range(n)]


def _matvec(rows, vec):
    return tuple(sum((r * v for r, v in zip(row, vec)), QT.zero) for row in rows)


def _qt_op(name, shape, template, rng):
    n, m, p, _, _ = shape
    sup_f, sup_g, sup_h, base = template
    xscale = [rng.choice(SCALES) for _ in range(n)]
    yscale = [rng.choice(SCALES) for _ in range(m)]
    F = PolyMap(QT, n, tuple(_scaled_poly(n, s, xscale, rng.choice(SCALES)) for s in sup_f))
    G = PolyMap(QT, m, tuple(_scaled_poly(m, s, yscale, rng.choice(SCALES)) for s in sup_g))
    a = tuple(_qt([u / k, v / k]) / _qt([c, 1]) for (u, v, c), k in zip(base, xscale))
    # hypersurface through a: H - H(a)
    H = _scaled_poly(n, sup_h, xscale, rng.choice(SCALES))
    hyp = AffineVariety("Hyp", QT, _names(n), (H - H.evaluate(a),))
    xs = tuple(f"x{i}" for i in range(n))
    ys = tuple(f"y{j}" for j in range(m))
    left = AffineVariety("X", QT, xs, ())
    right = AffineVariety("Y", QT, ys, ())
    graph = [
        MultiPoly.var(QT, n + m, n + j) - c.embed(n + m, list(range(n)))
        for j, c in enumerate(F.components)
    ]
    corr = Correspondence.make(left, right, graph)
    b = F.evaluate(a)

    def run():
        da = derive_point(a)
        jac = F.jacobian()
        fd = f_del(F)
        tF = tau_map(F)
        TF = tangent_map(F)
        GF = G.compose(F)
        chain = tau_map(G).compose(tF)
        tGF = tau_map(GF)
        fa = F.evaluate(a)
        jac_a = tuple(tuple(e.evaluate(a) for e in row) for row in jac)
        fd_a = fd.evaluate(a)
        dfa = derive_point(fa)
        tgf_a = tGF.evaluate(a + da)
        fib = fiber_solve(hyp, a)
        tv = tau_variety(hyp).total
        transfer = correspondence_transfer(corr, a, b)
        return {
            "jac": jac, "fdel": fd, "tau": tF, "tangent": TF, "GF": GF,
            "chain": chain, "tauGF": tGF, "Fa": fa, "Ja": jac_a, "fdel_a": fd_a,
            "dFa": dfa, "tauGF_a": tgf_a, "tau_hyp": tv,
            "fiber": (fib.particular, fib.basis),
            "transfer": (transfer.forward.matrix, transfer.forward.offset,
                         transfer.invertible),
        }

    def check(out):
        da = derive_point(a)
        # derive(F(a)) = J(a).da + f_del(F)(a)
        lhs = out["dFa"]
        rhs = tuple(x + y for x, y in zip(_matvec(out["Ja"], da), out["fdel_a"]))
        if lhs != rhs:
            return "derive(F(a)) != J(a).da + f_del(F)(a)"
        # chain rule: tau(G o F) = tau(G) o tau(F)
        if out["chain"].components != out["tauGF"].components:
            return "tau(G o F) != tau(G) o tau(F)"
        # tau(F) = T(F) + (0, f_del(F))
        tau_c, tan_c = out["tau"].components, out["tangent"].components
        lifted = [c.embed(2 * n, list(range(n))) for c in out["fdel"].components]
        if tau_c[:m] != tan_c[:m] or [x - y for x, y in zip(tau_c[m:], tan_c[m:])] != lifted:
            return "tau(F) != T(F) + (0, f_del(F))"
        if out["GF"].evaluate(a) != G.evaluate(out["Fa"]):
            return "(G o F)(a) != G(F(a))"
        gfa = out["tauGF_a"]
        if gfa[:p] != G.evaluate(out["Fa"]):
            return "tau(G o F) base part is not G(F(a))"
        if gfa[p:] != derive_point(gfa[:p]):
            return "tau(G o F)(nabla a) is not nabla((G o F)(a))"
        # fibre of tau(Hyp): grad(h)(a).u + h_del(a) = 0 on the particular
        # solution and grad(h)(a).v = 0 on the basis
        h = hyp.gens[0]
        grad = [h.partial(i).evaluate(a) for i in range(n)]
        hdel = h.coeff_derive().evaluate(a)
        particular, basis = out["fiber"]
        if sum((g * u for g, u in zip(grad, particular)), QT.zero) + hdel != QT.zero:
            return "fibre particular solution off tau(Hyp)"
        if any(sum((g * v for g, v in zip(grad, vec)), QT.zero) != QT.zero for vec in basis):
            return "fibre basis vector off the tangent space"
        if len(basis) != n - 1:
            return "fibre has the wrong dimension"
        # (a, da) lies on tau(Hyp)
        if any(not g.evaluate(a + da).is_zero for g in out["tau_hyp"].gens):
            return "nabla(a) is off tau(Hyp)"
        # transfer along the graph of F is the affine map u -> J(a).u + f_del(F)(a)
        matrix, offset, _ = out["transfer"]
        if tuple(map(tuple, matrix)) != out["Ja"] or tuple(offset) != out["fdel_a"]:
            return "transfer along graph(F) is not u -> J(a).u + f_del(F)(a)"
        return None

    return Op(name, _text((F, G, a, H)), run, check)


def build_qt_prolong(seed: int) -> list[Op]:
    srng = random.Random(_SUPPORT_SEED)
    templates = []
    for n, m, p, df, dg in QT_SHAPES:
        templates.append((
            [_support(srng, n, df, 3) for _ in range(m)],
            [_support(srng, m, dg, 3) for _ in range(p)],
            _support(srng, n, 2, 3),
            _base_point(srng, n),
        ))
    rng = random.Random(seed)
    ops = []
    for copy in range(QT_COPIES):
        for k, shape in enumerate(QT_SHAPES):
            ops.append(_qt_op(f"maps{k:02d}.{copy}", shape, templates[k], rng))
    return ops


# ----------------------------------------------------------------------
# cli-golden

MODEL_Q = os.path.join("tests", "data", "model_q.json")
MODEL_QT = os.path.join("tests", "data", "model_qt.json")

GOLDEN_COMMANDS = (
    ("parse", "-i", MODEL_Q, "--expr", "1/2 + 1/3"),
    ("parse", "-i", MODEL_QT, "--expr", "(x + t)/(x - t)", "--vars", "x"),
    ("gb", "-i", MODEL_Q, "-v", "Twisted"),
    ("gb", "-i", MODEL_QT, "-v", "Circle"),
    ("nf", "-i", MODEL_Q, "-v", "Twisted", "--expr", "z^2 - y^3"),
    ("nf", "-i", MODEL_QT, "-v", "Hyp", "--expr", "x^2*y^2 - t*x"),
    ("fdel", "-i", MODEL_QT, "-m", "tw"),
    ("fdel", "-i", MODEL_Q, "-m", "mob"),
    ("tau-map", "-i", MODEL_QT, "-m", "sq"),
    ("tau-map", "-i", MODEL_QT, "-m", "mob"),
    ("t-variety", "-i", MODEL_QT, "-v", "Circle"),
    ("t-variety", "-i", MODEL_Q, "-v", "Twisted"),
    ("tau-variety", "-i", MODEL_QT, "-v", "Circle"),
    ("tau-variety", "-i", MODEL_QT, "-v", "ParabT"),
    ("nabla", "-i", MODEL_QT, "-v", "Hyp", "--init", "t,1", "--order", "2"),
    ("check-nabla", "-i", MODEL_QT, "-v", "Hyp", "--init", "t^2,1/t"),
    ("fiber", "-i", MODEL_QT, "-v", "Hyp", "--init", "t,1"),
    ("fiber", "-i", MODEL_QT, "-v", "Hyp", "--init", "t,1", "--kind", "tangent"),
    ("transfer", "-i", MODEL_QT, "-c", "parabola", "--init", "t,t^2"),
    ("transfer", "-i", MODEL_Q, "-c", "parab0", "--init", "0,0"),
    ("check-cocycle", "-i", MODEL_QT, "-a", "P1"),
    ("tau-atlas", "-i", MODEL_QT, "-a", "P1"),
    ("check-group", "-i", MODEL_Q, "-g", "B"),
    ("check-group", "-i", MODEL_Q, "-g", "Gm"),
    ("tau-group", "-i", MODEL_Q, "-g", "B"),
    ("tau-group", "-i", MODEL_QT, "-g", "Ga"),
    ("check-dgroup", "-i", MODEL_Q, "-g", "B", "-s", "b_s01"),
    ("check-dgroup", "-i", MODEL_Q, "-g", "Gm", "-s", "gm_twist1"),
    ("check-dgroup", "-i", MODEL_QT, "-g", "Ga", "-s", "ga_ct"),
    ("check-dpoint", "-i", MODEL_QT, "-g", "Ga", "-s", "ga_ct", "--init", "t"),
    ("check-dpoint", "-i", MODEL_QT, "-g", "Ga", "-s", "ga_ct", "--init", "0"),
    ("solve-series", "-i", MODEL_Q, "-g", "B", "-s", "b_s01", "--init", "2,0,1/2",
     "--order", "5"),
    ("solve-series", "-i", MODEL_Q, "-g", "Gm", "-s", "gm_twist0", "--init", "3,1/3",
     "--order", "4"),
    ("verify-series", "-i", MODEL_Q, "-v", "BV", "--series", "{series}"),
)

# Solution of da/dt = sigma(a) for B with sigma = (0, 1 - x, 0) from
# (2, 0, 1/2), worked by hand: x and w stay put and y = -t.
SERIES_FILE = {"coefficients": {"x": ["2", "0", "0"], "y": ["0", "-1", "0"],
                                "w": ["1/2", "0", "0"]}}


def _cli_op(name, argv, inputs, expect_code=None, fixed=False):
    argv = list(argv)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        report = json.loads(out.getvalue())
        report.pop("timing_ms")
        report.pop("command")
        return {"exit": code, "report": report}

    def check(res):
        status = res["report"].get("status")
        if {"pass": 0, "fail": 1, "error": 2}.get(status) != res["exit"]:
            return "exit code does not match the report status"
        if expect_code is not None and res["exit"] != expect_code:
            return f"verdict exit {res['exit']}, expected {expect_code}"
        return None

    return Op(name, inputs, run, check, fixed=fixed)


def _q_doc(sections: dict) -> dict:
    return {
        "basefield": "Q",
        "varieties": {
            "GaV": {"vars": ["x"]},
            "GmV": {"vars": ["x", "w"], "gens": ["x*w - 1"]},
            "BV": {"vars": ["x", "y", "w"], "gens": ["x*w - 1"]},
        },
        "groups": {
            "Ga": {"variety": "GaV", "mult": ["x1 + x2"], "inv": ["-x"], "identity": ["0"]},
            "Gm": {"variety": "GmV", "mult": ["x1*x2", "w1*w2"], "inv": ["w", "x"],
                   "identity": ["1", "1"]},
            "B": {"variety": "BV", "mult": ["x1*x2", "x1*y2 + y1", "w1*w2"],
                  "inv": ["w", "-w*y", "x"], "identity": ["1", "0", "1"]},
        },
        "sections": sections,
    }


def _generated_sections(rng: random.Random) -> list[tuple[str, str, list[str], int]]:
    """(section, group, sigma, exit code) with verdicts known by hand.

    Ga: c*x is a homomorphism, c*x + d (d != 0) and x^2 are not.
    B: (0, a*y + b*(1 - x), 0) passes, (0, y + d, 0) with d != 0 fails.
    Gm over Q: only the zero twist passes.
    """
    c, d, a, b, e = (_frac(rng) for _ in range(5))
    return [
        ("ga_lin", "Ga", [f"({c})*x"], 0),
        ("ga_aff", "Ga", [f"({c})*x + ({d})"], 1),
        ("ga_sq", "Ga", [f"({c})*x^2"], 1),
        ("b_ok", "B", ["0", f"({a})*y + ({b})*(1 - x)", "0"], 0),
        ("b_bad", "B", ["0", f"y + ({d})", "0"], 1),
        ("gm_zero", "Gm", ["0", "0"], 0),
        ("gm_twist", "Gm", [f"({e})*x", f"({-e})*w"], 1),
    ]


GENERATED_DOCS = 3


def build_cli_golden(seed: int, workdir: str) -> list[Op]:
    """workdir receives the generated model documents and the series file."""
    series_path = os.path.join(workdir, "series.json")
    with open(series_path, "w", encoding="utf-8") as handle:
        json.dump(SERIES_FILE, handle)
    ops = []
    for k, argv in enumerate(GOLDEN_COMMANDS):
        inputs = " ".join(argv)
        argv = [series_path if a == "{series}" else a for a in argv]
        ops.append(_cli_op(f"golden{k:02d}.{argv[0]}", argv, inputs, fixed=True))
    rng = random.Random(seed)
    for doc_no in range(GENERATED_DOCS):
        sections = _generated_sections(rng)
        doc = _q_doc({s: {"group": g, "sigma": sigma} for s, g, sigma, _ in sections})
        path = os.path.join(workdir, f"model{doc_no}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
        text = json.dumps(doc, sort_keys=True)
        for s, g, _, code in sections:
            ops.append(_cli_op(f"doc{doc_no}.{s}", ["check-dgroup", "-i", path, "-g", g, "-s", s],
                               f"{text} check-dgroup {g} {s}", expect_code=code))
        ops.append(_cli_op(f"doc{doc_no}.check-group", ["check-group", "-i", path, "-g", "B"],
                           f"{text} check-group B", expect_code=0))
    return ops


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    if workload == "ideal-gb":
        return build_ideal_gb(seed)
    if workload == "cli-golden":
        return build_cli_golden(seed, workdir)
    if workload == "series-flow":
        return build_series_flow(seed)
    if workload == "qt-prolong":
        return build_qt_prolong(seed)
    raise ValueError(f"unknown workload {workload!r}")
