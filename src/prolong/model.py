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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .atlas import AtlasManifold
from .dgroup import AffineAlgGroup, DGroupSection, stacked_names
from .errors import ExprSyntaxError, ModelError, ProlongError
from .expr import parse_element, parse_poly, parse_rational
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
# about 3 s at dimension 10 and 10 s at dimension 20; with all 380
# transitions of 20 charts declared at dimension 20, check-cocycle takes
# about 34 s and tau-atlas --samples 1 about 115 s.
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


@dataclass(frozen=True)
class Model:
    field: BaseField
    varieties: dict
    maps: dict
    groups: dict
    sections: dict
    atlases: dict
    correspondences: dict

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


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ModelError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


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
        if not isinstance(item, str) or not item.isidentifier():
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


def _parse_polys(exprs, var_names, field, where):
    out = []
    for k, text in enumerate(exprs):
        try:
            out.append(parse_poly(text, var_names, field))
        except ExprSyntaxError as exc:
            raise ModelError(f"{where}[{k}]: {exc}") from exc
    return tuple(out)


def _parse_map(exprs, var_names, field, where):
    comps = []
    for k, text in enumerate(exprs):
        try:
            comps.append(parse_rational(text, var_names, field))
        except ExprSyntaxError as exc:
            raise ModelError(f"{where}[{k}]: {exc}") from exc
    return RationalMap(field, len(var_names), tuple(comps))


def _load_variety(name, spec, field):
    _expect_keys(spec, f"variety {name!r}", ("vars",), ("gens",))
    var_names = _expect_names(spec["vars"], f"variety {name!r} vars")
    gen_texts = _expect_strings(spec.get("gens", []), f"variety {name!r} gens", allow_empty=True)
    gens = _parse_polys(gen_texts, var_names, field, f"variety {name!r} gens")
    return AffineVariety(name, field, var_names, gens)


def _load_map(name, spec, field):
    _expect_keys(spec, f"map {name!r}", ("vars", "components"))
    var_names = _expect_names(spec["vars"], f"map {name!r} vars")
    comps = _expect_strings(spec["components"], f"map {name!r} components")
    rmap = _parse_map(comps, var_names, field, f"map {name!r} components")
    return ModelMap(name, var_names, rmap)


def _load_group(name, spec, field, varieties):
    _expect_keys(spec, f"group {name!r}", ("variety", "mult", "inv", "identity"))
    variety = _lookup(varieties, spec["variety"], "variety")
    names = variety.var_names
    mult_vars = stacked_names(names, 2)
    mult = _parse_map(
        _expect_strings(spec["mult"], f"group {name!r} mult"),
        mult_vars, field, f"group {name!r} mult",
    )
    inv = _parse_map(
        _expect_strings(spec["inv"], f"group {name!r} inv"),
        names, field, f"group {name!r} inv",
    )
    id_texts = _expect_strings(spec["identity"], f"group {name!r} identity")
    try:
        identity = tuple(parse_element(text, field) for text in id_texts)
    except ExprSyntaxError as exc:
        raise ModelError(f"group {name!r} identity: {exc}") from exc
    try:
        return AffineAlgGroup(name, variety, mult, inv, identity)
    except ProlongError as exc:
        raise ModelError(f"group {name!r}: {exc}") from exc


def _load_section(name, spec, field, groups):
    _expect_keys(spec, f"section {name!r}", ("group", "sigma"))
    group = _lookup(groups, spec["group"], "group")
    sigma = _parse_map(
        _expect_strings(spec["sigma"], f"section {name!r} sigma"),
        group.variety.var_names, field, f"section {name!r} sigma",
    )
    if len(sigma.components) != len(group.variety.var_names):
        raise ModelError(
            f"section {name!r} needs {len(group.variety.var_names)} components"
        )
    return ModelSection(name, spec["group"], DGroupSection(sigma))


def _default_coords(dim):
    if dim == 1:
        return ("x",)
    return tuple(f"x{k}" for k in range(1, dim + 1))


def _load_atlas(name, spec, field):
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
    transitions = {}
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
        comps = _expect_strings(exprs, f"atlas {name!r} transition {key!r}")
        if len(comps) != dim:
            raise ModelError(
                f"atlas {name!r} transition {key!r} needs {dim} components"
            )
        transitions[(i, j)] = _parse_map(
            comps, coords, field, f"atlas {name!r} transition {key!r}"
        )
    try:
        return AtlasManifold(
            name, field, dim, tuple(range(1, count + 1)), coords, transitions
        )
    except ProlongError as exc:
        raise ModelError(f"atlas {name!r}: {exc}") from exc


def _load_correspondence(name, spec, field, varieties):
    _expect_keys(spec, f"correspondence {name!r}", ("left", "right", "gens"))
    left = _lookup(varieties, spec["left"], "variety")
    right = _lookup(varieties, spec["right"], "variety")
    joint = left.var_names + right.var_names
    if len(set(joint)) != len(joint):
        raise ModelError(
            f"correspondence {name!r}: left and right varieties share a "
            "coordinate name"
        )
    gens = _parse_polys(
        _expect_strings(spec["gens"], f"correspondence {name!r} gens"),
        joint, field, f"correspondence {name!r} gens",
    )
    try:
        return Correspondence.make(left, right, gens)
    except ProlongError as exc:
        raise ModelError(f"correspondence {name!r}: {exc}") from exc


def load_model(text):
    """Parse and validate a model document given as a JSON string."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ModelError("invalid JSON: nested too deeply") from None
    doc = _expect_object(doc, "model document")
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

    def category(key):
        return _expect_object(doc.get(key, {}), f'"{key}"')

    varieties = {}
    for vname, spec in category("varieties").items():
        varieties[vname] = _load_variety(
            vname, _expect_object(spec, f"variety {vname!r}"), field
        )
    maps = {}
    for mname, spec in category("maps").items():
        maps[mname] = _load_map(
            mname, _expect_object(spec, f"map {mname!r}"), field
        )
    groups = {}
    for gname, spec in category("groups").items():
        groups[gname] = _load_group(
            gname, _expect_object(spec, f"group {gname!r}"), field, varieties
        )
    sections = {}
    for sname, spec in category("sections").items():
        sections[sname] = _load_section(
            sname, _expect_object(spec, f"section {sname!r}"), field, groups
        )
    atlases = {}
    for aname, spec in category("atlases").items():
        atlases[aname] = _load_atlas(
            aname, _expect_object(spec, f"atlas {aname!r}"), field
        )
    correspondences = {}
    for cname, spec in category("correspondences").items():
        correspondences[cname] = _load_correspondence(
            cname, _expect_object(spec, f"correspondence {cname!r}"), field, varieties
        )
    return Model(field, varieties, maps, groups, sections, atlases, correspondences)


def load_model_file(path):
    """Read and validate a model document from a file path."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    return load_model(text)
