"""Per-layer tracing of the prolong package from outside it.

The tracer wraps public functions and methods of each module and restores
the originals on ``uninstall``.  A module-level function is replaced at
every place it is bound (the defining module, every prolong module that
imported it, and the benchmark's own workload module), so calls made
through any of those names are seen.  Methods are replaced on the class,
including aliases such as ``__radd__ = __add__``.

Each wrapped call pushes a frame.  Its self time is its duration minus the
time its wrapped children cover; self time is summed per layer.  Calls of
module-level functions and of map methods are also kept as spans (name,
start, end, parent span, op id) in memory and written out by ``dump``.
Field, polynomial and series arithmetic runs to tens of thousands of calls
per op, so those calls are counted and timed but not stored one by one.
Field calls are counted only when made from outside the field layer:
``a - b`` counts once, not once more for the ``a + (-b)`` it runs inside.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from prolong import atlas, cli, dgroup, expr, field, groebner, linalg, model, poly
from prolong import prolongation, series

FIELD_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__truediv__", "__rtruediv__", "inverse", "derive",
)
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
         "__pow__")
MULTIPOLY_METHODS = ARITH + (
    "partial", "coeff_derive", "evaluate", "substitute", "embed", "lead", "monic",
)
MAP_METHODS = (
    "evaluate", "compose", "jacobian", "coeff_derive", "permute_inputs", "embed_inputs",
    "as_rational", "as_polymap", "equiv",
)
SERIES_METHODS = ARITH + ("__truediv__", "__rtruediv__", "inverse", "derive", "truncate")

# layer -> (module, public function names)
MODULE_FUNCTIONS = {
    "poly": (poly, ("poly_gcd", "reduce_fraction", "exact_div", "map_product")),
    "groebner.buchberger": (groebner, ("buchberger",)),
    "groebner.normal_form": (groebner, ("normal_form", "equal_mod_ideal")),
    "series": (series, ("solve_dpoint", "map_on_series", "poly_on_series",
                        "variety_residuals", "verify_on_variety", "element_to_series")),
    "prolongation": (prolongation, (
        "derive_point", "nabla", "tangent_variety", "tau_variety", "product_variety",
        "f_del", "tangent_map", "tau_map", "check_nabla_in_tau", "fiber_solve",
        "correspondence_transfer", "fiber_names")),
    "linalg": (linalg, ("rref", "solve_affine", "rank", "in_span", "affine_subspace_equal",
                        "mat_vec", "mat_mul")),
    "dgroup": (dgroup, ("check_group_axioms", "check_dgroup", "tau_group", "dpoint_check",
                        "nabla_hom_check", "zero_section_T", "stacked_names")),
    "atlas": (atlas, ("check_cocycle", "tangent_atlas", "tau_atlas",
                      "check_sigma_compatibility", "sigma_pointwise", "sample_point",
                      "verify_chartwise_map", "prolong_map_between_atlases")),
    "expr": (expr, ("parse_poly", "parse_rational", "parse_element", "parse_point",
                    "format_poly", "format_rational", "format_element")),
    "model": (model, ("load_model", "load_model_file")),
    "cli": (cli, ("main",)),
}

# Counters reported by name: counter -> wrapped names it sums.
COUNTERS = {
    "poly.mul.calls": ("MultiPoly.__mul__",),
    "poly.gcd.calls": ("poly.poly_gcd",),
    "poly.reduce_fraction.calls": ("poly.reduce_fraction",),
    "poly.compose.calls": ("PolyMap.compose", "RationalMap.compose"),
    "poly.evaluate.calls": ("MultiPoly.evaluate",),
    "groebner.bases": ("groebner.buchberger",),
    "groebner.normal_forms": ("groebner.normal_form",),
    "series.solves": ("series.solve_dpoint",),
    "series.map_evals": ("series.map_on_series",),
    "series.mul.calls": ("TruncSeries.__mul__",),
    "series.inverse.calls": ("TruncSeries.inverse",),
    "linalg.rref.calls": ("linalg.rref",),
    "dgroup.checks": ("dgroup.check_group_axioms", "dgroup.check_dgroup", "dgroup.tau_group"),
    "atlas.sigma_checks": ("atlas.check_sigma_compatibility",),
    "expr.parses": ("expr.parse_poly", "expr.parse_rational", "expr.parse_element",
                    "expr.parse_point"),
    "expr.formats": ("expr.format_poly", "expr.format_rational", "expr.format_element"),
    "model.loads": ("model.load_model",),
    "cli.runs": ("cli.main",),
}
SHARE_LAYERS = (
    "field", "poly", "groebner.buchberger", "groebner.normal_form", "series",
    "prolongation", "linalg", "dgroup", "atlas", "expr", "model", "cli",
)


def _ambient_modules(extra):
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "prolong" or name.startswith("prolong."))]
    return mods + list(extra)


class Tracer:
    """Counts, per-layer self time and spans for the ops of traced passes."""

    def __init__(self, extra_modules=(), clock=perf_counter):
        self.extra_modules = tuple(extra_modules)
        self.clock = clock
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {layer: 0.0 for layer in SHARE_LAYERS}
        self.field_ops = 0
        self.field_nonconst = 0
        self.spolys = 0
        self.spolys_useful = 0
        self.basis_vars_max = 0
        self.spans: list[tuple] = []
        self._stack = [0.0]
        self._ids = [None]
        self._op = None
        self._in_field = False
        self._last_spoly = None

    # -- op boundaries -------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id
        self._stack = [0.0]
        self._ids = [None]

    # -- installation --------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        for mod in _ambient_modules(self.extra_modules):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _patch_methods(self, cls, names, make):
        done = {}
        for name in names:
            fn = cls.__dict__.get(name)
            if fn is None:
                continue
            if id(fn) not in done:
                done[id(fn)] = make(fn, f"{cls.__name__}.{name}")
            self._set(cls, name, done[id(fn)])

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch_methods(field.FieldElement, FIELD_METHODS, self._field_wrapper)
        hot = lambda layer: (lambda fn, name: self._wrapper(fn, name, layer, store=False))
        spanned = lambda layer: (lambda fn, name: self._wrapper(fn, name, layer, store=True))
        self._patch_methods(poly.MultiPoly, MULTIPOLY_METHODS, hot("poly"))
        self._patch_methods(poly.PolyMap, MAP_METHODS, spanned("poly"))
        self._patch_methods(poly.RationalMap, MAP_METHODS, spanned("poly"))
        self._patch_methods(series.TruncSeries, SERIES_METHODS, hot("series"))
        for layer, (mod, names) in MODULE_FUNCTIONS.items():
            short = mod.__name__.rsplit(".", 1)[-1]
            for name in names:
                original = getattr(mod, name)
                probe = self._basis_probe if name == "buchberger" else None
                self._rebind(original, self._wrapper(original, f"{short}.{name}", layer,
                                                     store=True, probe=probe))
        self._rebind(groebner._s_polynomial, self._spoly_wrapper(groebner._s_polynomial))
        self._rebind(groebner.reduce_full, self._reduce_wrapper(groebner.reduce_full))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- wrappers ------------------------------------------------------

    def _field_wrapper(self, fn, name):
        tracer = self
        clock = self.clock

        def wrapped(a, *args):
            if tracer._in_field:
                return fn(a, *args)
            tracer.field_ops += 1
            b = args[0] if args else None
            if len(a.num) > 1 or len(a.den) > 1 or (
                isinstance(b, field.FieldElement) and (len(b.num) > 1 or len(b.den) > 1)
            ):
                tracer.field_nonconst += 1
            tracer._in_field = True
            start = clock()
            try:
                return fn(a, *args)
            finally:
                elapsed = clock() - start
                tracer._in_field = False
                tracer.self_time["field"] += elapsed
                tracer._stack[-1] += elapsed

        wrapped.__wrapped__ = fn
        return wrapped

    def _wrapper(self, fn, name, layer, store, probe=None):
        tracer = self
        clock = self.clock

        def wrapped(*args, **kwargs):
            calls = tracer.calls
            calls[name] = calls.get(name, 0) + 1
            if probe is not None:
                probe(args)
            stack = tracer._stack
            stack.append(0.0)
            if store:
                sid = len(tracer.spans)
                tracer.spans.append(None)
                parent = tracer._ids[-1]
                tracer._ids.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                tracer.self_time[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                if store:
                    tracer._ids.pop()
                    tracer.spans[sid] = (sid, parent, tracer._op, name, start, end)

        wrapped.__wrapped__ = fn
        return wrapped

    def _basis_probe(self, args):
        gens = args[0]
        if isinstance(gens, groebner.IdealBasis):
            nvars = gens.nvars
        elif isinstance(gens, (list, tuple)):  # never consume an iterator
            nvars = next((g.nvars for g in gens if not g.is_zero), 0)
        else:
            return
        self.basis_vars_max = max(self.basis_vars_max, nvars)

    def _spoly_wrapper(self, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            s = fn(*args, **kwargs)
            tracer.spolys += 1
            tracer._last_spoly = s
            return s

        wrapped.__wrapped__ = fn
        return wrapped

    def _reduce_wrapper(self, fn):
        tracer = self

        def wrapped(p, *args, **kwargs):
            r = fn(p, *args, **kwargs)
            if p is tracer._last_spoly:
                tracer._last_spoly = None
                if not r.is_zero:
                    tracer.spolys_useful += 1
            return r

        wrapped.__wrapped__ = fn
        return wrapped

    # -- results -------------------------------------------------------

    def counts(self) -> dict[str, int]:
        out = {"field.ops": self.field_ops}
        for counter, names in COUNTERS.items():
            out[counter] = sum(self.calls.get(n, 0) for n in names)
        out["prolongation.calls"] = sum(
            v for k, v in self.calls.items() if k.startswith("prolongation."))
        out["groebner.spolys"] = self.spolys
        out["groebner.spolys_useful"] = self.spolys_useful
        out["groebner.basis_vars_max"] = self.basis_vars_max
        out["field.nonconst_ops"] = self.field_nonconst
        return out

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(meta) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

