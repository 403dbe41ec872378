"""Truncated power series in t and the online flow solver for section maps."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd

from .errors import (
    ArityMismatch,
    DenominatorVanishesAtInitialPoint,
    NonUnitConstantTerm,
    PointNotOnVariety,
)
from .field import FieldElement, power
from .poly import PolyMap, RationalMap, evaluate_at
from .reporting import CheckReport

_ZERO = Fraction(0)
_ONE = Fraction(1)

# A product multiplies integers, over runs of consecutive coefficients that
# share one denominator, the lcm of theirs.  A run ends where scaling one of
# its members to that lcm would lengthen it by more than RUN_BITS bits.
# Denominators near k! grow by about log2(k) bits a step, so a run near
# order 1000 holds about 27 coefficients; one lcm over a whole series would
# make every numerator as long as the longest denominator.
RUN_BITS = 256


def _coerce_fraction(value):
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, FieldElement):
        # only constant elements embed into the coefficient field
        n, d = value.n, value.d
        if len(d) == 1 and len(n) <= 1:
            return Fraction(n[0], d[0]) if n else _ZERO
        raise ValueError("series coefficients and initial data must be rational constants")
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _nonzero(coeffs):
    """(index, coefficient) pairs of the nonzero coefficients, index ascending."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


def _runs(pairs):
    """Split (index, coefficient) pairs into runs over one common denominator.

    Each run is (denominator, [(index, numerator)]) with every coefficient
    equal to its numerator over the run's denominator, the lcm of its
    members' denominators.  A member joins the run before it unless the
    lcm would then exceed the run's least denominator by more than RUN_BITS
    bits.
    """
    runs = []
    members = []
    for i, c in pairs:
        d = c.denominator
        if members:
            lcm = den // gcd(den, d) * d
            least = d if d < low else low
            if (lcm // least).bit_length() <= RUN_BITS:
                den, low = lcm, least
                members.append((i, c))
                continue
            runs.append(_scaled(den, members))
            members = []
        den = low = d
        members.append((i, c))
    if members:
        runs.append(_scaled(den, members))
    return runs


def _scaled(den, members):
    return den, [(i, c.numerator * (den // c.denominator)) for i, c in members]


# The solver's and the inverse's recurrences run on (numerator, denominator)
# pairs of ints, denominators positive.  A sum is kept unreduced over a
# running lcm of its terms' denominators, with one gcd per nonzero term, and
# each coefficient a recurrence stores is reduced once.


def _pairs(coeffs):
    """The Fractions coeffs as (numerator, denominator) pairs, trailing zeros dropped."""
    return _trimmed([(c.numerator, c.denominator) for c in coeffs])


def _trimmed(pairs):
    while pairs and not pairs[-1][0]:
        pairs.pop()
    return pairs


def _reduced(n, d):
    g = gcd(n, d)
    return n // g, d // g


def _sum_of_products(n, d, products):
    """n/d + sum over (xs, ys) in products of x_i * y_(k-i), k = len(ys) - 1.

    Each xs is an iterable and each ys a list of pairs, and xs may be
    shorter or longer than ys.  The sum is returned unreduced.
    """
    for xs, ys in products:
        for (xn, xd), (yn, yd) in zip(xs, reversed(ys)):
            if xn and yn:
                tn = xn * yn
                td = xd * yd
                g = gcd(d, td)
                n = n * (td // g) + tn * (d // g)
                d = d // g * td
    return n, d


def _quotient(n, d, d0, tail, qs):
    """q_k = (n_k - sum_{j>=1} d_j q_{k-j}) / d_0, as a Fraction, for k = len(qs).

    n/d is n_k; d0 is the pair d_0, tail the pairs d_1, d_2, ... and qs the
    pairs q_0, ..., q_(k-1).
    """
    n, d = _sum_of_products(-n, d, ((tail, qs),))
    return Fraction(-n * d0[1], d * d0[0])


class TruncSeries:
    """Element of Q[[t]] / t^(order+1), held as exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple([_coerce_fraction(c) for c in coeffs])
        if not cs:
            raise ValueError("a series stores at least its constant term")
        self.coeffs = cs

    @classmethod
    def _of(cls, coeffs):
        """Wrap a nonempty tuple of Fractions as is; for results of arithmetic."""
        s = object.__new__(cls)
        s.coeffs = coeffs
        return s

    @classmethod
    def const(cls, value, order):
        c = _coerce_fraction(value)
        return cls._of((c,) + (_ZERO,) * order)

    @classmethod
    def zero(cls, order):
        return cls.const(0, order)

    @classmethod
    def t(cls, order):
        if order < 1:
            raise ValueError("the series t needs order at least 1")
        return cls._of((_ZERO, _ONE) + (_ZERO,) * (order - 1))

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def coefficient(self, k):
        return self.coeffs[k]

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries._of(self.coeffs[: order + 1])

    def _pair(self, other):
        if isinstance(other, TruncSeries):
            n = min(self.order, other.order)
            a = self if self.order == n else self.truncate(n)
            b = other if other.order == n else other.truncate(n)
            return a, b
        return self, TruncSeries.const(other, self.order)

    def __add__(self, other):
        """The sum; a coefficient beside a zero one is passed through as is."""
        a, b = self._pair(other)
        return TruncSeries._of(
            tuple([x + y if x and y else x or y for x, y in zip(a.coeffs, b.coeffs)])
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._of(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        return TruncSeries._of(
            tuple([x - y if x and y else -y if y else x for x, y in zip(a.coeffs, b.coeffs)])
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The truncated product, convolved in integers run by run.

        Each pair of runs (see _runs) is one integer convolution, and each
        nonzero coefficient of it is added to the product once, over the
        product of the two runs' denominators.  A factor with at most one
        nonzero coefficient, such as a constant, multiplies term by term.
        """
        a, b = self._pair(other)
        n = a.order
        out = [_ZERO] * (n + 1)
        xs = _nonzero(a.coeffs)
        ys = _nonzero(b.coeffs)
        if len(xs) <= 1 or len(ys) <= 1:
            for i, x in xs:
                for j, y in ys:
                    if i + j > n:
                        break
                    out[i + j] += x * y
            return TruncSeries._of(tuple(out))
        runs_b = _runs(ys)
        for da, ra in _runs(xs):
            i0 = ra[0][0]
            for db, rb in runs_b:
                base = i0 + rb[0][0]
                if base > n:
                    break
                acc = [0] * (min(ra[-1][0] + rb[-1][0], n) - base + 1)
                for i, x in ra:
                    for j, y in rb:
                        k = i + j
                        if k > n:
                            break
                        acc[k - base] += x * y
                d = da * db
                for k, v in enumerate(acc, base):
                    if v:
                        out[k] += Fraction(v, d)
        return TruncSeries._of(tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        """The online quotient (see _quotient) with numerator 1."""
        if not self.coeffs[0]:
            raise NonUnitConstantTerm("series has zero constant term")
        d0, *tail = _pairs(self.coeffs)
        out = []
        qs = []
        n = 1
        for _ in self.coeffs:
            q = _quotient(n, 1, d0, tail, qs)
            out.append(q)
            qs.append((q.numerator, q.denominator))
            n = 0
        return TruncSeries._of(tuple(out))

    def __truediv__(self, other):
        if not isinstance(other, TruncSeries):
            other = TruncSeries.const(other, self.order)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent) if exponent else TruncSeries.const(1, self.order)

    def derive(self):
        if self.order == 0:
            raise ValueError("an order-0 series has no usable derivative")
        return TruncSeries._of(
            tuple((k + 1) * c for k, c in enumerate(self.coeffs[1:]))
        )

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        from .expr import format_series

        return format_series(self)

    def __repr__(self):
        return f"TruncSeries({self.coeffs!r})"


@dataclass(frozen=True)
class SeriesPoint:
    """Tuple of series of one uniform order, one per ambient coordinate."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a series point needs at least one component")
        orders = {c.order for c in comps}
        if len(orders) != 1:
            raise ValueError("series point components must share one order")
        object.__setattr__(self, "components", comps)

    @classmethod
    def constant(cls, values, order):
        return cls(tuple(TruncSeries.const(v, order) for v in values))

    @property
    def order(self):
        return self.components[0].order

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def truncate(self, order):
        return SeriesPoint(tuple(c.truncate(order) for c in self.components))

    def derive(self):
        return SeriesPoint(tuple(c.derive() for c in self.components))

    def at_zero(self):
        return tuple(c.coefficient(0) for c in self.components)


def _fractions(f):
    """(numerator, denominator) per component of a map, None for a denominator 1."""
    if isinstance(f, PolyMap):
        return [(c, None) for c in f.components]
    return [
        (num, None if den.is_one else den)
        for num, den in f.components
    ]


def element_to_series(elem, order):
    """Expand a base-field element in Q[[t]]; the denominator must be a unit."""
    n, d = elem.n, elem.d
    pad = (_ZERO,) * (order + 1 - len(n))
    if len(d) == 1:
        c = d[0]
        if c == 1:
            return TruncSeries._of(tuple([Fraction(x) for x in n[: order + 1]]) + pad)
        return TruncSeries._of(tuple([Fraction(x, c) for x in n[: order + 1]]) + pad)
    if d[0] == 0:
        raise DenominatorVanishesAtInitialPoint(
            "coefficient denominator vanishes at t = 0"
        )
    num = tuple([Fraction(x) for x in n[: order + 1]]) + pad
    den = tuple([Fraction(x) for x in d[: order + 1]]) + (_ZERO,) * (order + 1 - len(d))
    return TruncSeries._of(num) * TruncSeries._of(den).inverse()


def poly_on_series(p, point):
    """Evaluate a polynomial at a series point, coefficients expanded at t = 0."""
    if p.nvars != len(point):
        raise ArityMismatch(f"expected {p.nvars} components, got {len(point)}")
    order = point.order
    return evaluate_at(p, point.components, lambda c: element_to_series(c, order), {})


def map_on_series(f, point):
    """Evaluate a polynomial or rational map at a series point."""
    if not isinstance(f, (PolyMap, RationalMap)):
        raise TypeError("expected a polynomial or rational map")
    if f.in_arity != len(point):
        raise ArityMismatch(f"expected {f.in_arity} components, got {len(point)}")
    out = []
    for num, den in _fractions(f):
        n = poly_on_series(num, point)
        if den is None:
            out.append(n)
            continue
        d = poly_on_series(den, point)
        if d.coefficient(0) == 0:
            raise DenominatorVanishesAtInitialPoint(
                "map denominator vanishes at the series base point"
            )
        out.append(n * d.inverse())
    return SeriesPoint(tuple(out))


def variety_residuals(variety, point):
    """Per-generator residual series of a series point against a variety."""
    if len(variety.var_names) != len(point):
        raise ArityMismatch(
            f"expected {len(variety.var_names)} components, got {len(point)}"
        )
    return tuple(poly_on_series(g, point) for g in variety.gens)


def verify_on_variety(variety, point):
    """Report whether every generator vanishes on the point through its order."""
    report = CheckReport()
    for k, residual in enumerate(variety_residuals(variety, point)):
        report.add(
            f"generator {k}",
            residual.is_zero,
            None if residual.is_zero else str(residual),
        )
    return report


class _OnlineMap:
    """A map's fractions compiled into a straight-line program on online series.

    An online series is a list of the coefficients computed so far, each a
    reduced (numerator, denominator) pair of ints.  The inputs are the
    solution's own coefficient lists.  Every distinct monomial of degree two
    or more is one product node, the monomial with its first variable peeled
    off times that variable, shared by all components.  ``coefficient(k)``
    extends every node by its coefficient k, reading only coefficients 0..k
    of the inputs, and returns coefficient k of each component as a pair,
    unreduced.  A product or quotient coefficient is a sum of at most k + 1
    terms, and so is a term whose coefficient is a rational function of t;
    a map of degree one with coefficients in Q[t] costs O(1) per step.

    The sums run in integers: each is kept over a running lcm of its terms'
    denominators (see _sum_of_products), and the coefficients of sigma are
    turned into pairs once, here.  A node or denominator coefficient is
    reduced once, when it is stored; a quotient coefficient is one Fraction
    (see _quotient).
    """

    def __init__(self, fractions, inputs, order):
        self.inputs = inputs
        self.order = order
        self.nodes = {}
        self.products = []  # (out, left, right) in dependency order
        # per component: (numerator, None) or (numerator, (denominator,
        # coefficients of the denominator, coefficients of the quotient))
        self.components = [
            (self._poly(num), None if den is None else (self._poly(den), [], []))
            for num, den in fractions
        ]

    def _node(self, mono):
        chain = []
        while mono not in self.nodes:
            i = next(j for j, e in enumerate(mono) if e)
            if sum(mono) == 1:
                self.nodes[mono] = self.inputs[i]
                break
            chain.append((mono, i))
            mono = mono[:i] + (mono[i] - 1,) + mono[i + 1 :]
        node = self.nodes[mono]
        for mono, i in reversed(chain):
            out = []
            self.products.append((out, node, self.inputs[i]))
            self.nodes[mono] = node = out
        return node

    def _poly(self, p):
        """(constant term's coefficients, [(coefficients, node)]), all as pairs."""
        order = self.order
        const = []
        terms = []
        for mono, c in p.terms.items():
            n, d = c.n, c.d
            if len(d) == 1:
                cs = _trimmed([_reduced(x, d[0]) for x in n[: order + 1]])
            else:
                cs = _pairs(element_to_series(c, order).coeffs)
            if any(mono):
                terms.append((cs, self._node(mono)))
            else:
                const = cs
        return const + [(0, 1)] * (order + 1 - len(const)), terms

    def coefficient(self, k):
        for out, left, right in self.products:
            out.append(_reduced(*_sum_of_products(0, 1, ((left, right),))))
        velocity = []
        for (const, terms), quotient in self.components:
            n, d = _sum_of_products(*const[k], terms)
            if quotient is None:
                velocity.append((n, d))
                continue
            (den_const, den_terms), ds, qs = quotient
            ds.append(_reduced(*_sum_of_products(*den_const[k], den_terms)))
            q = _quotient(n, d, ds[0], islice(ds, 1, None), qs)
            qs.append((q.numerator, q.denominator))
            velocity.append(qs[k])
        return velocity


def solve_dpoint(variety, sigma, initial, order):
    """Integrate the flow da/dt = sigma(a) from a rational point of the variety.

    Coefficients obey coeff_{k+1}(a_i) = coeff_k(sigma_i(a)) / (k+1), so the
    result is the unique series point with a(0) = initial solving the system
    through the requested order.  The solver is online: sigma is compiled
    once, and step k computes coefficient k of sigma(a) from coefficients
    0..k of a only.  A solve costs O(order) when sigma has degree one and
    coefficients in Q[t], and O(order^2) per product node, denominator other
    than 1 or coefficient that is a true rational function of t.

    Each step runs in integers (see _OnlineMap): coeff_k(sigma_i(a)) comes
    back as an unreduced pair n/d, and coeff_{k+1}(a_i) is made as one
    Fraction(n, d*(k+1)), the only reduction it takes.
    """
    if not isinstance(sigma, (PolyMap, RationalMap)):
        raise TypeError("expected a polynomial or rational section map")
    n = len(variety.var_names)
    if sigma.in_arity != n or len(sigma.components) != n:
        raise ArityMismatch(
            f"section must map {n} coordinates to {n}, "
            f"got {sigma.in_arity} -> {len(sigma.components)}"
        )
    a0 = tuple(_coerce_fraction(v) for v in initial)
    if len(a0) != n:
        raise ArityMismatch(f"expected {n} initial values, got {len(a0)}")
    if order < 0:
        raise ValueError("order must be nonnegative")

    start = SeriesPoint.constant(a0, 0)
    for gen in variety.gens:
        if poly_on_series(gen, start).coefficient(0) != 0:
            raise PointNotOnVariety(
                f"initial point ({', '.join(map(str, a0))}) does not lie on {variety.name} at t = 0"
            )
    fractions = _fractions(sigma)
    for _, den in fractions:
        if den is not None and poly_on_series(den, start).coefficient(0) == 0:
            raise DenominatorVanishesAtInitialPoint(
                "section denominator vanishes at the initial point"
            )

    coeffs = [[v] for v in a0]
    if order:
        # compiled only now: at order 0 the numerators are never expanded
        inputs = [[(v.numerator, v.denominator)] for v in a0]
        program = _OnlineMap(fractions, inputs, order)
        for k in range(order):
            for cs, pairs, (n, d) in zip(coeffs, inputs, program.coefficient(k)):
                v = Fraction(n, d * (k + 1))
                cs.append(v)
                pairs.append((v.numerator, v.denominator))
    return SeriesPoint(tuple(TruncSeries._of(tuple(cs)) for cs in coeffs))
