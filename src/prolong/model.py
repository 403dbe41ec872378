"""Loader for the declarative JSON model format used by the command line.

A model document is UTF-8 JSON with top-level keys "basefield", "varieties",
"maps", "groups", "sections", "atlases", "correspondences".  Named objects
cross-reference each other by name; every expression is parsed under the
variables declared for its object.

Conventions fixed here:
  - multiplication maps read their inputs as two stacked copies of the
    variety coordinates, named x1, y1, ..., x2, y2, ... in that order;
  - atlas chart ids are the integers 1..charts, and transition keys are
    strings "i,j";
  - atlas coordinates default to x (dimension 1) or x1..xn, unless the
    atlas object carries an explicit "coords" list;
  - correspondence generators live on the concatenated coordinates of the
    left then the right variety.

load_model checks the whole document and builds no polynomial: its shape,
keys and names, cross-references and caps, component and identity counts,
atlas chart keys, and the grammar of every expression (expr.check_poly,
expr.check_rational: the parser's own pass over the tokens, with no values
built, so it raises the fault a parse would raise first).  Each object is
built the first time the Model is asked for it, and kept: a section builds
its group, a group its variety.
Only the faults that depend on an expanded polynomial wait for that build:
a divisor that is identically zero, a product or power of degree above the
cap, and the parse work budget.  They are ModelErrors located at where[k],
as the load time faults are.  An expression with a fault of both kinds
reports its syntax fault, at load time.

read_file and read_json are the one reader of outside documents: the CLI
reads a series file by them too, under its own error class.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass

from .atlas import AtlasManifold
from .dgroup import AffineAlgGroup, DGroupSection, stacked_names
from .errors import ExprSyntaxError, IdenticallyZeroDenominator, ModelError
from .expr import (
    MAX_LITERAL_DIGITS,
    check_poly,
    check_rational,
    is_name,
    parse_element,
    parse_poly,
    parse_rational,
    read_int,
)
from .field import Q, QT, BaseField
from .poly import RationalMap
from .prolongation import AffineVariety, Correspondence

_TOP_KEYS = (
    "basefield",
    "varieties",
    "maps",
    "groups",
    "sections",
    "atlases",
    "correspondences",
)


# Largest atlas dimension and chart count a model may declare.  Both are
# checked before coordinate names or chart ids are built.  Work grows with
# them: tau-atlas --samples 200 on a two-chart atlas with x1 -> 1/x1 takes
# about 0.6 s at dimension 20; with all 380 transitions of 20 charts
# declared at dimension 20 (identity maps), check-cocycle takes about 2 s
# and tau-atlas --samples 1 about 7 s; on the standard atlas of P^9,
# check-cocycle takes about 0.6 s and tau-atlas --samples 1 about 2.3 s
# (CI bounds 5 s and 8 s), and on that of P^19 check-cocycle about 10 s
# (CI bound 25 s) while tau-atlas is not bounded (CLI runs, 2-core x86 VM,
# Python 3.11).
MAX_ATLAS_DIM = 20
MAX_ATLAS_CHARTS = 20


@dataclass(frozen=True)
class ModelMap:
    """A named map together with the input coordinates it was written in."""

    name: str
    var_names: tuple
    rmap: RationalMap


@dataclass(frozen=True)
class ModelSection:
    """A named section together with the group it belongs to."""

    name: str
    group_name: str
    section: DGroupSection


class _Table(Mapping):
    """One category of a loaded model: a read-only name -> object table.

    load_model adds each checked entry with the coordinate names it is
    written in and its builder; the object is built on its first lookup and
    kept.
    """

    def __init__(self):
        self.coords = {}
        self._builders = {}
        self._built = {}

    def add(self, name, coords, build):
        self.coords[name] = coords
        self._builders[name] = build

    def __getitem__(self, name):
        if name not in self._built:
            self._built[name] = self._builders[name]()
        return self._built[name]

    def __contains__(self, name):
        return name in self._builders

    def __iter__(self):
        return iter(self._builders)

    def __len__(self):
        return len(self._builders)


@dataclass(frozen=True)
class Model:
    field: BaseField
    varieties: Mapping
    maps: Mapping
    groups: Mapping
    sections: Mapping
    atlases: Mapping
    correspondences: Mapping

    def variety(self, name):
        return _lookup(self.varieties, name, "variety")

    def map(self, name):
        return _lookup(self.maps, name, "map")

    def group(self, name):
        return _lookup(self.groups, name, "group")

    def section(self, name):
        return _lookup(self.sections, name, "section")

    def atlas(self, name):
        return _lookup(self.atlases, name, "atlas")

    def correspondence(self, name):
        return _lookup(self.correspondences, name, "correspondence")


def _lookup(table, name, category):
    if not isinstance(name, str):
        raise ModelError(f"{category} reference must be a string, got {_show(name)}")
    if name not in table:
        known = ", ".join(sorted(table)) or "none defined"
        raise ModelError(f"unknown {category} {name!r} (known: {known})")
    return table[name]


def _show(value):
    """repr of a JSON scalar; a list or object only by its type, since it may
    nest too deeply to print."""
    return type(value).__name__ if isinstance(value, (list, dict)) else repr(value)


def read_file(path, error, what):
    """The text of a UTF-8 file; a fault reading it raises error, naming what
    and path."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json(text, error, what):
    """The JSON document text, read as every outside document is: a repeated
    key, an integer of more than MAX_LITERAL_DIGITS digits (refused before
    it is converted, whatever Python's integer-string limit is), invalid
    JSON and nesting too deep to decode each raise error, naming what."""

    def pairs(items):
        doc = {}
        for key, value in items:
            if key in doc:
                raise error(f"duplicate key {key!r} in {what}")
            doc[key] = value
        return doc

    def integer(numeral):
        if len(numeral) - numeral.startswith("-") > MAX_LITERAL_DIGITS:
            raise error(f"{what} has an integer of more than {MAX_LITERAL_DIGITS} digits")
        return read_int(numeral)

    try:
        return json.loads(text, object_pairs_hook=pairs, parse_int=integer)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON in {what}: {exc}") from exc
    except RecursionError:
        raise error(f"invalid JSON in {what}: nested too deeply") from None


def _expect_object(value, where):
    if not isinstance(value, dict):
        raise ModelError(f"{where} must be a JSON object")
    return value


def _expect_positive_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ModelError(f"{where} must be a positive integer")
    return value


def _expect_keys(spec, where, required, optional=()):
    for key in required:
        if key not in spec:
            raise ModelError(f"{where} is missing {key!r}")
    for key in spec:
        if key not in required and key not in optional:
            raise ModelError(f"{where} has unknown key {key!r}")


def _expect_names(value, where):
    if not isinstance(value, list) or not value:
        raise ModelError(f"{where} must be a nonempty list of names")
    names = []
    for item in value:
        if not isinstance(item, str) or not is_name(item):
            raise ModelError(f"{where} contains a bad variable name {_show(item)}")
        if item == "t":
            raise ModelError(f"{where} uses 't', which names the base field element")
        names.append(item)
    if len(set(names)) != len(names):
        raise ModelError(f"{where} repeats a variable name")
    return tuple(names)


def _expect_strings(value, where, allow_empty=False):
    if not isinstance(value, list) or (not value and not allow_empty):
        raise ModelError(f"{where} must be a {'' if allow_empty else 'nonempty '}list of strings")
    for item in value:
        if not isinstance(item, str):
            raise ModelError(f"{where} contains a non-string entry {_show(item)}")
    return tuple(value)


def _each(parse, texts, var_names, field, where):
    """parse(text, var_names, field) for each text; a fault is a ModelError
    at where[k]."""
    out = []
    for k, text in enumerate(texts):
        try:
            out.append(parse(text, var_names, field))
        except (ExprSyntaxError, IdenticallyZeroDenominator) as exc:
            raise ModelError(f"{where}[{k}]: {exc}") from exc
    return tuple(out)


def _parse_map(texts, var_names, field, where):
    comps = _each(parse_rational, texts, var_names, field, where)
    return RationalMap(field, len(var_names), comps)


# Each _check_* checks one entry of a document and returns the coordinate
# names the entry is written in and the function that builds it.


def _check_variety(name, spec, field):
    _expect_keys(spec, f"variety {name!r}", ("vars",), ("gens",))
    var_names = _expect_names(spec["vars"], f"variety {name!r} vars")
    where = f"variety {name!r} gens"
    gens = _expect_strings(spec.get("gens", []), where, allow_empty=True)
    _each(check_poly, gens, var_names, field, where)

    def build():
        polys = _each(parse_poly, gens, var_names, field, where)
        return AffineVariety(name, field, var_names, polys)

    return var_names, build


def _check_map(name, spec, field):
    _expect_keys(spec, f"map {name!r}", ("vars", "components"))
    var_names = _expect_names(spec["vars"], f"map {name!r} vars")
    where = f"map {name!r} components"
    comps = _expect_strings(spec["components"], where)
    _each(check_rational, comps, var_names, field, where)

    def build():
        return ModelMap(name, var_names, _parse_map(comps, var_names, field, where))

    return var_names, build


def _check_group(name, spec, field, varieties):
    _expect_keys(spec, f"group {name!r}", ("variety", "mult", "inv", "identity"))
    vname = spec["variety"]
    names = _lookup(varieties.coords, vname, "variety")
    mult_vars = stacked_names(names, 2)
    mult_at, inv_at = f"group {name!r} mult", f"group {name!r} inv"
    mult = _expect_strings(spec["mult"], mult_at)
    _each(check_rational, mult, mult_vars, field, mult_at)
    inv = _expect_strings(spec["inv"], inv_at)
    _each(check_rational, inv, names, field, inv_at)
    identity = _expect_strings(spec["identity"], f"group {name!r} identity")
    try:
        for text in identity:
            check_rational(text, (), field)
    except ExprSyntaxError as exc:
        raise ModelError(f"group {name!r} identity: {exc}") from exc
    # the shape AffineAlgGroup requires, in its words
    n = len(names)
    if len(mult) != n:
        raise ModelError(f"group {name!r}: mult must map 2*{n} variables to {n}")
    if len(inv) != n:
        raise ModelError(f"group {name!r}: inv must map {n} variables to {n}")
    if len(identity) != n:
        raise ModelError(f"group {name!r}: point of length {len(identity)}, expected {n}")

    def build():
        variety = varieties[vname]
        mult_map = _parse_map(mult, mult_vars, field, mult_at)
        inv_map = _parse_map(inv, names, field, inv_at)
        try:
            point = tuple(parse_element(text, field) for text in identity)
        except (ExprSyntaxError, IdenticallyZeroDenominator) as exc:
            raise ModelError(f"group {name!r} identity: {exc}") from exc
        return AffineAlgGroup(name, variety, mult_map, inv_map, point)

    return names, build


def _check_section(name, spec, field, groups):
    _expect_keys(spec, f"section {name!r}", ("group", "sigma"))
    group = spec["group"]
    names = _lookup(groups.coords, group, "group")
    where = f"section {name!r} sigma"
    sigma = _expect_strings(spec["sigma"], where)
    _each(check_rational, sigma, names, field, where)
    if len(sigma) != len(names):
        raise ModelError(f"section {name!r} needs {len(names)} components")

    def build():
        var_names = groups[group].variety.var_names
        return ModelSection(name, group, DGroupSection(_parse_map(sigma, var_names, field, where)))

    return names, build


def _default_coords(dim):
    if dim == 1:
        return ("x",)
    return tuple(f"x{k}" for k in range(1, dim + 1))


def _check_atlas(name, spec, field):
    _expect_keys(spec, f"atlas {name!r}", ("dim", "charts", "transitions"), ("coords",))
    dim = _expect_positive_int(spec["dim"], f"atlas {name!r} dim")
    count = _expect_positive_int(spec["charts"], f"atlas {name!r} charts")
    if dim > MAX_ATLAS_DIM:
        raise ModelError(f"atlas {name!r} dim must be at most {MAX_ATLAS_DIM}, got {dim}")
    if count > MAX_ATLAS_CHARTS:
        raise ModelError(
            f"atlas {name!r} charts must be at most {MAX_ATLAS_CHARTS}, got {count}"
        )
    if "coords" in spec:
        coords = _expect_names(spec["coords"], f"atlas {name!r} coords")
        if len(coords) != dim:
            raise ModelError(f"atlas {name!r} coords must list {dim} names")
    else:
        coords = _default_coords(dim)
    raw = _expect_object(spec["transitions"], f"atlas {name!r} transitions")
    transitions = []
    for key, exprs in raw.items():
        parts = key.split(",")
        try:
            i, j = (int(p) for p in parts)
        except ValueError:
            raise ModelError(
                f"atlas {name!r} transition key {key!r} is not of the form \"i,j\""
            ) from None
        for c in (i, j):
            if not 1 <= c <= count:
                raise ModelError(
                    f"atlas {name!r} transition {key!r} references chart {c}, "
                    f"valid charts are 1..{count}"
                )
        where = f"atlas {name!r} transition {key!r}"
        if i == j:
            raise ModelError(f"{where}: the identity transition is implicit; do not store it")
        comps = _expect_strings(exprs, where)
        if len(comps) != dim:
            raise ModelError(f"{where} needs {dim} components")
        _each(check_rational, comps, coords, field, where)
        transitions.append(((i, j), comps, where))
    charts = tuple(range(1, count + 1))

    def build():
        maps = {ij: _parse_map(comps, coords, field, where) for ij, comps, where in transitions}
        return AtlasManifold(name, field, dim, charts, coords, maps)

    return coords, build


def _check_correspondence(name, spec, field, varieties):
    _expect_keys(spec, f"correspondence {name!r}", ("left", "right", "gens"))
    left, right = spec["left"], spec["right"]
    joint = _lookup(varieties.coords, left, "variety") + _lookup(
        varieties.coords, right, "variety"
    )
    if len(set(joint)) != len(joint):
        raise ModelError(
            f"correspondence {name!r}: left and right varieties share a "
            "coordinate name"
        )
    where = f"correspondence {name!r} gens"
    gens = _expect_strings(spec["gens"], where)
    _each(check_poly, gens, joint, field, where)

    def build():
        return Correspondence.make(
            varieties[left], varieties[right], _each(parse_poly, gens, joint, field, where)
        )

    return joint, build


def load_model(text):
    """Check a model document given as a JSON string; its objects are built
    on first use (see the module docstring)."""
    doc = _expect_object(read_json(text, ModelError, "model document"), "model document")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ModelError(f"unknown top-level key {key!r}")
    if "basefield" not in doc:
        raise ModelError('model document is missing "basefield"')
    tag = doc["basefield"]
    if tag == "Q":
        field = Q
    elif tag == "Qt":
        field = QT
    else:
        raise ModelError(f'basefield must be "Q" or "Qt", got {_show(tag)}')

    def category(key, what, check, *tables):
        table = _Table()
        for name, spec in _expect_object(doc.get(key, {}), f'"{key}"').items():
            spec = _expect_object(spec, f"{what} {name!r}")
            table.add(name, *check(name, spec, field, *tables))
        return table

    varieties = category("varieties", "variety", _check_variety)
    maps = category("maps", "map", _check_map)
    groups = category("groups", "group", _check_group, varieties)
    sections = category("sections", "section", _check_section, groups)
    atlases = category("atlases", "atlas", _check_atlas)
    correspondences = category(
        "correspondences", "correspondence", _check_correspondence, varieties
    )
    return Model(field, varieties, maps, groups, sections, atlases, correspondences)


def load_model_file(path):
    """Read and check a model document from a file path."""
    return load_model(read_file(path, ModelError, "model file"))
