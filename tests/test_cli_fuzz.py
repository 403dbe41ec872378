"""Seeded fuzz of the command line: malformed models, series files and flags.

Each case mutates one of the golden models (or the series file of
verify-series, or one flag value) and runs one subcommand through main().
Whatever the input, the run must print one JSON report, exit 0, 1 or 2 as
its status says, and end in an error the package names: a ProlongError
subclass or ValueError, never the last-resort handler.
"""

import copy
import json
import random
from pathlib import Path

from prolong import errors
from prolong.cli import main

DATA = Path(__file__).parent / "data"
MODELS = {name: json.loads((DATA / f"{name}.json").read_text())
          for name in ("model_q", "model_qt")}

# One invocation per subcommand, on the model whose objects it names, and
# two whose verdict is "fail".
INVOCATIONS = (
    ("model_q", ("parse", "--expr", "x*w - 1", "-v", "GmV")),
    ("model_qt", ("parse", "--expr", "(x + t)/(x - t)", "--vars", "x")),
    ("model_q", ("gb", "-v", "Twisted")),
    ("model_qt", ("nf", "-v", "Hyp", "--expr", "x^2*y^2 - t*x")),
    ("model_qt", ("fdel", "-m", "tw")),
    ("model_q", ("tau-map", "-m", "mob")),
    ("model_qt", ("t-variety", "-v", "Circle")),
    ("model_qt", ("tau-variety", "-v", "ParabT")),
    ("model_qt", ("nabla", "-v", "Hyp", "--init", "t,1", "--order", "2")),
    ("model_qt", ("check-nabla", "-v", "Hyp", "--init", "t^2,1/t")),
    ("model_qt", ("fiber", "-v", "Hyp", "--init", "t,1")),
    ("model_qt", ("transfer", "-c", "parabola", "--init", "t,t^2")),
    ("model_qt", ("check-cocycle", "-a", "P1")),
    ("model_qt", ("tau-atlas", "-a", "P1", "--samples", "3")),
    ("model_q", ("check-group", "-g", "Gm")),
    ("model_qt", ("tau-group", "-g", "Ga")),
    ("model_q", ("check-dgroup", "-g", "B", "-s", "b_s01")),
    ("model_q", ("check-dgroup", "-g", "Gm", "-s", "gm_twist1")),
    ("model_qt", ("check-nabla", "-v", "Hyp", "--init", "1,1")),
    ("model_qt", ("check-dpoint", "-g", "Ga", "-s", "ga_ct", "--init", "t")),
    ("model_q", ("solve-series", "-g", "Gm", "-s", "gm_twist1", "--init", "3,1/3",
                 "--order", "4")),
    ("model_q", ("verify-series", "-v", "BV", "--series", "{series}")),
)

SERIES = {"coefficients": {"x": ["2", "0", "0"], "y": ["0", "-1", "0"],
                           "w": ["1/2", "0", "0"]}}

REFERENCES = (("groups", "variety"), ("sections", "group"),
              ("correspondences", "left"), ("correspondences", "right"))

WRONG_VALUES = (None, True, False, 0, -1, 3, 1.5, "x", "", [], {}, ["x"], {"k": "v"}, [1, 2])

BAD_EXPRESSIONS = ("x +", "(x", "x^", "x^-1", "1/0", "x^99", "t", "y*", "1/(x-x)", "",
                   "x**2", "2x", "u_x", "x/w", "(" * 150 + "x" + ")" * 150, "x1 + x2",
                   "1/2/", "é")

NAMES = ("nope", "", "GaV", "B", "x", "1")

TOKENS = ("", "abc", "-1", "0", "2", "1,1", "1/0", "t,", ",", "1,2,3,4", "x",
          "99999999999999999999")


def nodes(doc):
    """Every (container, key) slot of a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from nodes(value)


def deep(rng):
    """A list nested deeper than the interpreter can parse, or just below."""
    depth = rng.choice((50, 500, 100000))
    return "[" * depth + "]" * depth


def mutate_document(rng, doc):
    """One random fault in a copy of a JSON document; returns its text."""
    doc = copy.deepcopy(doc)
    slots = list(nodes(doc))
    kind = rng.choice(("reference", "wrong type", "expression", "deep", "delete", "text"))
    if kind == "reference":
        refs = [(spec, key) for category, key in REFERENCES
                for spec in doc.get(category, {}).values() if key in spec]
        if refs:
            spec, key = rng.choice(refs)
            spec[key] = rng.choice((["GaV"], {"v": "X"}, 3, None, True))
    elif kind == "wrong type":
        parent, key = rng.choice(slots)
        parent[key] = rng.choice(WRONG_VALUES)
    elif kind == "expression":
        strings = [(p, k) for p, k in slots if isinstance(p[k], str) and k != "basefield"]
        if strings:
            parent, key = rng.choice(strings)
            parent[key] = rng.choice(BAD_EXPRESSIONS)
    elif kind == "deep":
        parent, key = rng.choice(slots)
        parent[key] = "@@"
        return json.dumps(doc).replace('"@@"', deep(rng))
    elif kind == "delete":
        parent, key = rng.choice(slots)
        del parent[key]
    text = json.dumps(doc)
    if kind == "text":
        cut = rng.randrange(len(text))
        text = rng.choice((text[:cut], text[:cut] + "}" + text[cut:], text.replace('"', "'", 1)))
    return text


def mutate_flag(rng, argv):
    """Replace one flag value: an object name, a point, an order, an expression."""
    argv = list(argv)
    slots = [k for k in range(2, len(argv))
             if argv[k - 1].startswith("-") and argv[k - 1] != "--series"]
    k = rng.choice(slots)
    flag = argv[k - 1]
    if flag == "--expr":
        argv[k] = rng.choice(BAD_EXPRESSIONS)
    elif flag in ("--init", "--order", "--samples", "--vars"):
        argv[k] = rng.choice(TOKENS)
    else:
        argv[k] = rng.choice(NAMES)
    return argv


def known_errors():
    out, todo = {"ValueError"}, [errors.ProlongError]
    while todo:
        cls = todo.pop()
        out.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return out


def run_case(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # exactly one JSON document
    return code, report, captured.err


def test_fuzzed_invocations_give_one_report(capsys, tmp_path):
    rng = random.Random(4242)
    names = known_errors()
    model_path = tmp_path / "model.json"
    series_path = tmp_path / "series.json"
    statuses = set()
    for case in range(240):
        model, argv = rng.choice(INVOCATIONS)
        target = rng.choice(("model", "model", "flag", "series"))
        model_text = json.dumps(MODELS[model])
        series_text = json.dumps(SERIES)
        if target == "model":
            model_text = mutate_document(rng, MODELS[model])
        elif target == "flag":
            argv = mutate_flag(rng, argv)
        else:
            argv = INVOCATIONS[-1][1]
            model_text = json.dumps(MODELS["model_q"])
            series_text = mutate_document(rng, SERIES)
        model_path.write_text(model_text)
        series_path.write_text(series_text)
        argv = [argv[0], "-i", str(model_path)] + [
            str(series_path) if a == "{series}" else a for a in argv[1:]]
        where = f"case {case}: {argv}, {target} {model_text[:200]!r}"
        code, report, err = run_case(capsys, argv)
        assert sorted(report) == ["command", "details", "status", "timing_ms"], where
        assert code == {"pass": 0, "fail": 1, "error": 2}[report["status"]], where
        if report["status"] == "error":
            assert "error" in report["details"], where
        if "error" in report["details"]:
            assert report["details"]["error"] in names, where
        assert "Traceback" not in err, where
        statuses.add(report["status"])
    assert statuses == {"pass", "fail", "error"}
