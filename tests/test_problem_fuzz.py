"""Property-based check of the problem-file parser.

Each example edits one shipped problem file at one place under a
``params`` object: it replaces a value with an arbitrary JSON value, or
renames a key.  ``parse_problem`` must then return or raise a
``MonosplitError``; any other exception would reach ``monosplit solve`` as
a traceback.  No example is solved.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monosplit.errors import MonosplitError
from monosplit.problemio import parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
KEYS = st.sampled_from(["weight", "matrix", "offset", "terms", "dim",
                        "prox", "params", "op"]) | st.text(max_size=6)


def param_paths(node, inside=False, path=()):
    """Paths of the ``params`` objects and of every dict value below them.

    Lists are entered only where they hold objects (quadratic terms), so
    a matrix counts as one value rather than one path per entry.
    """
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        if isinstance(node, list) and not isinstance(child, dict):
            continue
        here = path + (key,)
        if inside or key == "params":
            yield here
        yield from param_paths(child, inside or key == "params", here)


DOCS = {name: json.loads((PROBLEMS / name).read_text())
        for name in ("lasso.json", "qp.json")}
PATHS = {name: list(param_paths(doc)) for name, doc in DOCS.items()}


@pytest.mark.parametrize("name", DOCS)
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_params_parse_or_raise_monosplit_error(name, data):
    path = data.draw(st.sampled_from(PATHS[name]))
    doc = copy.deepcopy(DOCS[name])
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if isinstance(last, str) and data.draw(st.booleans()):
        node[data.draw(KEYS)] = node.pop(last)
    else:
        node[last] = data.draw(JSON_VALUES)
    try:
        parse_problem(doc)
    except MonosplitError:
        pass
