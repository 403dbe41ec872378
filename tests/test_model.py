import json
import re
from pathlib import Path

import pytest

from prolong import model
from prolong import (
    Q,
    QT,
    ModelError,
    check_dgroup,
    check_group_axioms,
    format_poly,
    load_model,
    load_model_file,
)

DATA = Path(__file__).parent / "data"


def minimal(**extra):
    doc = {"basefield": "Q"}
    doc.update(extra)
    return json.dumps(doc)


def test_load_golden_models():
    mq = load_model_file(DATA / "model_q.json")
    assert mq.field is Q
    assert set(mq.groups) == {"Ga", "Gm", "B"}
    mqt = load_model_file(DATA / "model_qt.json")
    assert mqt.field is QT
    assert "P1" in mqt.atlases


def test_loaded_objects_are_usable():
    m = load_model_file(DATA / "model_q.json")
    assert check_group_axioms(m.group("Gm")).ok
    s = m.section("b_s01")
    assert s.group_name == "B"
    assert check_dgroup(m.group("B"), s.section).ok
    tw = m.variety("Twisted")
    assert [format_poly(g, tw.var_names) for g in tw.gens] == ["-x^2 + y", "-x^3 + z"]


def test_mult_reads_stacked_coordinates():
    m = load_model_file(DATA / "model_q.json")
    b = m.group("B")
    # mult components were written in x1, y1, w1, x2, y2, w2
    assert b.mult.in_arity == 6
    assert b.mult.evaluate(
        tuple(Q.elem(v) for v in (2, 1, "1/2", 3, -2, "1/3"))
    ) == tuple(Q.elem(v) for v in (6, -3, "1/6"))


def test_atlas_conventions():
    m = load_model_file(DATA / "model_qt.json")
    p1 = m.atlas("P1")
    assert p1.charts == (1, 2)
    assert p1.coord_names == ("x",)
    assert p1.has_transition(1, 2) and p1.has_transition(2, 1)


def test_default_coords_for_higher_dim():
    text = minimal(
        atlases={"M": {"dim": 2, "charts": 1, "transitions": {}}}
    )
    m = load_model(text)
    assert m.atlas("M").coord_names == ("x1", "x2")


def test_explicit_coords():
    text = minimal(
        atlases={
            "M": {
                "dim": 1,
                "charts": 2,
                "coords": ["z"],
                "transitions": {"1,2": ["1/z"], "2,1": ["1/z"]},
            }
        }
    )
    assert load_model(text).atlas("M").coord_names == ("z",)


def test_lookup_errors_name_known_objects():
    m = load_model_file(DATA / "model_q.json")
    with pytest.raises(ModelError, match="unknown group 'Nope'"):
        m.group("Nope")
    with pytest.raises(ModelError, match="known: Ga, Gm, B|known: B, Ga, Gm"):
        m.group("Nope")
    empty = load_model(minimal())
    with pytest.raises(ModelError, match="none defined"):
        empty.variety("V")


def test_invalid_json():
    with pytest.raises(ModelError, match="invalid JSON"):
        load_model("{")


def test_duplicate_keys_rejected():
    text = '{"basefield": "Q", "varieties": {"V": {"vars": ["x"]}, "V": {"vars": ["y"]}}}'
    with pytest.raises(ModelError, match="duplicate key 'V'"):
        load_model(text)


def test_unknown_top_level_key():
    with pytest.raises(ModelError, match="unknown top-level key 'plots'"):
        load_model(minimal(plots={}))


def test_basefield_required_and_validated():
    with pytest.raises(ModelError, match='missing "basefield"'):
        load_model("{}")
    with pytest.raises(ModelError, match='basefield must be "Q" or "Qt"'):
        load_model('{"basefield": "R"}')


def test_variety_key_validation():
    with pytest.raises(ModelError, match="missing 'vars'"):
        load_model(minimal(varieties={"V": {}}))
    with pytest.raises(ModelError, match="unknown key 'extra'"):
        load_model(minimal(varieties={"V": {"vars": ["x"], "extra": 1}}))
    with pytest.raises(ModelError, match="repeats a variable name"):
        load_model(minimal(varieties={"V": {"vars": ["x", "x"]}}))
    with pytest.raises(ModelError, match="bad variable name '2x'"):
        load_model(minimal(varieties={"V": {"vars": ["2x"]}}))


@pytest.mark.parametrize("name", ["é", "xé", "ｘ", "x١"])
def test_vars_are_names_the_tokenizer_reads(name):
    # str.isidentifier accepts each of these, but no expression could use it
    assert name.isidentifier()
    with pytest.raises(ModelError, match="bad variable name"):
        load_model(minimal(varieties={"V": {"vars": ["x", name]}}))
    with pytest.raises(ModelError, match="bad variable name"):
        load_model(minimal(maps={"F": {"vars": [name], "components": ["1"]}}))


def test_expression_errors_carry_location():
    text = minimal(varieties={"V": {"vars": ["x"], "gens": ["x +"]}})
    with pytest.raises(ModelError, match=r"variety 'V' gens\[0\]"):
        load_model(text)
    text = minimal(varieties={"V": {"vars": ["x"], "gens": ["x * t"]}})
    with pytest.raises(ModelError, match="'t' is not available over Q"):
        load_model(text)


@pytest.mark.parametrize("literal, message", [
    ("١", "unexpected character '١' (offset 4)"),
    ("７", "unexpected character '７' (offset 4)"),
    ("7" * 5000, "integer literal of more than 4300 digits (offset 4)"),
], ids=["arabic-indic-digit", "fullwidth-digit", "5000-digits"])
def test_literal_faults_are_located_at_load(literal, message):
    # a digit other than 0-9 and an over-long literal are faults of the
    # text, found by the load-time check with the expression's location
    text = minimal(varieties={"V": {"vars": ["x"], "gens": ["x - 1", f"x + {literal}"]}})
    with pytest.raises(ModelError) as info:
        load_model(text)
    assert str(info.value) == f"variety 'V' gens[1]: {message}"


def test_group_references_unknown_variety():
    text = minimal(
        groups={
            "G": {"variety": "V", "mult": ["x1 + x2"], "inv": ["-x"], "identity": ["0"]}
        }
    )
    with pytest.raises(ModelError, match="unknown variety 'V'"):
        load_model(text)


def test_section_component_count():
    text = json.loads(minimal())
    text["varieties"] = {"V": {"vars": ["x", "y"]}}
    text["groups"] = {
        "G": {
            "variety": "V",
            "mult": ["x1 + x2", "y1 + y2"],
            "inv": ["-x", "-y"],
            "identity": ["0", "0"],
        }
    }
    text["sections"] = {"s": {"group": "G", "sigma": ["0"]}}
    with pytest.raises(ModelError, match="section 's' needs 2 components"):
        load_model(json.dumps(text))


def test_atlas_transition_key_format():
    base = {"dim": 1, "charts": 2, "transitions": {"1;2": ["1/x"]}}
    with pytest.raises(ModelError, match="not of the form"):
        load_model(minimal(atlases={"M": base}))
    base = {"dim": 1, "charts": 2, "transitions": {"1,3": ["1/x"]}}
    with pytest.raises(ModelError, match="valid charts are 1..2"):
        load_model(minimal(atlases={"M": base}))
    base = {"dim": 1, "charts": 2, "transitions": {"1,2": ["1/x", "x"]}}
    with pytest.raises(ModelError, match="needs 1 components"):
        load_model(minimal(atlases={"M": base}))


def test_atlas_dim_and_charts_validation():
    with pytest.raises(ModelError, match="dim must be a positive integer"):
        load_model(minimal(atlases={"M": {"dim": 0, "charts": 1, "transitions": {}}}))
    with pytest.raises(ModelError, match="charts must be a positive integer"):
        load_model(minimal(atlases={"M": {"dim": 1, "charts": "2", "transitions": {}}}))
    with pytest.raises(ModelError, match="dim must be a positive integer"):
        load_model(minimal(atlases={"M": {"dim": True, "charts": 1, "transitions": {}}}))
    with pytest.raises(ModelError, match="charts must be a positive integer"):
        load_model(minimal(atlases={"M": {"dim": 1, "charts": True, "transitions": {}}}))
    with pytest.raises(ModelError, match="coords must list 2 names"):
        load_model(
            minimal(
                atlases={
                    "M": {"dim": 2, "charts": 1, "coords": ["x"], "transitions": {}}
                }
            )
        )


def test_correspondence_name_collision():
    text = json.loads(minimal())
    text["varieties"] = {"X": {"vars": ["x"]}, "X2": {"vars": ["x"]}}
    text["correspondences"] = {"c": {"left": "X", "right": "X2", "gens": ["x"]}}
    with pytest.raises(ModelError, match="share a\\s+coordinate name"):
        load_model(json.dumps(text))


def test_correspondence_joint_ring():
    m = load_model_file(DATA / "model_qt.json")
    corr = m.correspondence("parabola")
    assert corr.graph.var_names == ("x", "y")
    rendered = [format_poly(g, corr.graph.var_names) for g in corr.graph.gens]
    assert rendered == ["-x^2 + y"]


def test_categories_must_be_objects():
    with pytest.raises(ModelError, match='"varieties" must be a JSON object'):
        load_model(minimal(varieties=[]))
    with pytest.raises(ModelError, match="variety 'V' must be a JSON object"):
        load_model(minimal(varieties={"V": []}))


def test_non_string_entries_rejected():
    with pytest.raises(ModelError, match="non-string entry 5"):
        load_model(minimal(varieties={"V": {"vars": ["x"], "gens": [5]}}))
    # a list entry is named by its type: it may nest too deeply to print
    deep = json.loads("[" * 500 + "]" * 500)
    with pytest.raises(ModelError, match="non-string entry list"):
        load_model(minimal(varieties={"V": {"vars": ["x"], "gens": [deep]}}))


def test_variable_named_t_rejected():
    doc = minimal(varieties={"V": {"vars": ["t", "y"], "gens": ["t*y - 1"]}})
    with pytest.raises(ModelError, match="uses 't'"):
        load_model(doc.replace('"Q"', '"Qt"'))
    with pytest.raises(ModelError, match="uses 't'"):
        load_model(minimal(atlases={"M": {"dim": 1, "charts": 1, "coords": ["t"],
                                          "transitions": {}}}))



def with_entry(category, name, key, k, text, base="model_q.json"):
    doc = json.loads((DATA / base).read_text())
    doc[category][name][key][k] = text
    return json.dumps(doc)


# A fault that only the expanded polynomial shows waits for the first use of
# its entry, and then reads as it did when the whole document was built at
# load time; a divisor that is identically zero is now a located ModelError.
VALUE_FAULTS = [
    ("sections", "ga_c1", "sigma", 0, "1/(x - x)", "section",
     "section 'ga_c1' sigma[0]: division by an identically zero expression (offset 1)"),
    ("sections", "ga_c1", "sigma", 0, "(x + 1)^40*(x + 1)", "section",
     "section 'ga_c1' sigma[0]: product of degree above 40 (offset 10)"),
    ("maps", "mob", "components", 0, "(x^2)^21", "map",
     "map 'mob' components[0]: power of degree above 40 (offset 6)"),
    ("varieties", "Twisted", "gens", 1, "(x + y + z + 1)^40", "variety",
     "variety 'Twisted' gens[1]: expression expands beyond 500000 coefficient products "
     "(offset 16)"),
    ("groups", "Gm", "mult", 1, "1/(w1 - w1)", "group",
     "group 'Gm' mult[1]: division by an identically zero expression (offset 1)"),
    ("groups", "Gm", "identity", 1, "1/(1 - 1)", "group",
     "group 'Gm' identity: division by an identically zero expression (offset 1)"),
    ("correspondences", "parab0", "gens", 0, "(x*y)^20*x", "correspondence",
     "correspondence 'parab0' gens[0]: product of degree above 40 (offset 8)"),
]


@pytest.mark.parametrize("category, name, key, k, text, kind, message", VALUE_FAULTS)
def test_value_faults_wait_for_first_use(category, name, key, k, text, kind, message):
    m = load_model(with_entry(category, name, key, k, text))
    assert check_group_axioms(m.group("B")).ok
    with pytest.raises(ModelError) as info:
        getattr(m, kind)(name)
    assert str(info.value) == message
    # not kept: asked again, the entry fails again
    with pytest.raises(ModelError, match=re.escape(message)):
        getattr(m, kind)(name)


def test_section_reports_the_fault_of_its_group():
    m = load_model(with_entry("groups", "Gm", "mult", 1, "1/(w1 - w1)"))
    with pytest.raises(ModelError, match=r"group 'Gm' mult\[1\]"):
        m.section("gm_twist1")


def test_syntax_fault_is_reported_before_a_value_fault():
    with pytest.raises(ModelError) as info:
        load_model(with_entry("sections", "ga_c1", "sigma", 0, "(x + 1)^40*(x + 1) +"))
    assert str(info.value) == "section 'ga_c1' sigma[0]: unexpected end of input (offset 20)"


def test_shape_faults_are_found_at_load():
    group = {"variety": "V", "mult": ["x1 + x2"], "inv": ["-x"], "identity": ["0"]}
    for key, value, message in (
        ("mult", ["x1 + x2", "x2"], "group 'G': mult must map 2*1 variables to 1"),
        ("inv", ["-x", "x"], "group 'G': inv must map 1 variables to 1"),
        ("identity", ["0", "0"], "group 'G': point of length 2, expected 1"),
    ):
        doc = minimal(varieties={"V": {"vars": ["x"]}}, groups={"G": {**group, key: value}})
        with pytest.raises(ModelError) as info:
            load_model(doc)
        assert str(info.value) == message
    atlas = {"dim": 1, "charts": 2, "transitions": {"1,1": ["x"], "1,2": ["1/x"]}}
    with pytest.raises(ModelError) as info:
        load_model(minimal(atlases={"M": atlas}))
    assert str(info.value) == (
        "atlas 'M' transition '1,1': the identity transition is implicit; do not store it"
    )


def test_each_object_is_built_once_on_first_use(monkeypatch):
    parsed = []
    for fname in ("parse_poly", "parse_rational", "parse_element"):
        def record(text, *args, real=getattr(model, fname)):
            parsed.append(text)
            return real(text, *args)

        monkeypatch.setattr(model, fname, record)
    m = load_model_file(DATA / "model_q.json")
    assert set(m.sections) >= {"b_s01", "gm_twist1"} and "B" in m.groups
    assert len(m.varieties) == 6 and "Nope" not in m.maps
    assert parsed == []
    section = m.section("b_s01")
    # the section builds its group B, and B its variety BV, each once
    assert sorted(parsed) == sorted([
        "x*w - 1",
        "x1*x2", "x1*y2 + y1", "w1*w2", "w", "-w*y", "x", "1", "0", "1",
        "0", "1 - x", "0",
    ])
    parsed.clear()
    assert m.section("b_s01") is section
    assert m.group("B").variety is m.variety("BV") is m.varieties["BV"]
    assert parsed == []
    with pytest.raises(TypeError):
        m.groups["B"] = None
