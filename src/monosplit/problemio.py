"""Problem-file ingestion: JSON schema, operator/prox builders, assembly.

A problem file describes a minimization instance: its layout, offsets,
linear operators, functions (``f``/``smooth``/``g``/``ell``), solver and
error-schedule sections.

Dense operators are row-major nested arrays; matrix-free operators come
from a named builder catalog.  Schema violations are reported with
JSON-pointer style paths.
"""

import heapq
import inspect
import json
import math
import sys
from contextlib import contextmanager
from functools import partial

import numpy as np
from jsonschema import Draft202012Validator

from .errors import ConfigurationError, MonosplitError
from .imaging import (
    box_blur_op,
    gaussian_blur_op,
    gradient_op,
    haar_analysis_op,
    second_gradient_op,
)
from .linops import dense_op, identity_op, scaled_identity_op, zero_op
from .minimization import (
    MinimizationSpec,
    build_system,
    quadratic_smooth,
    zero_smooth,
)
from .prox import make_function
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DEFAULT_TRACE_EVERY,
    geometric_schedule,
    zero_schedule,
)
from .system import SpaceLayout

PROBLEM_VERSION = 1


def _square(args):
    return args["dim"], args["dim"]


def _image(channels):
    def dims(args):
        pixels = args["height"] * args["width"]
        return pixels, channels * pixels

    return dims


# name -> (constructor, integer params, number params, dims); the parameter
# names are the constructor's keyword arguments, and dims maps them (with
# the constructor's defaults filled in) to the operator's (in_dim, out_dim)
# without building it
OPERATOR_BUILDERS = {
    "identity": (identity_op, ("dim",), (), _square),
    "scaled_identity": (scaled_identity_op, ("dim",), ("scale",), _square),
    "zero": (zero_op, ("in_dim", "out_dim"), (),
             lambda args: (args["in_dim"], args["out_dim"])),
    "gradient": (gradient_op, ("height", "width"), (), _image(2)),
    "second_gradient": (second_gradient_op, ("height", "width"), (),
                        _image(4)),
    "haar": (haar_analysis_op, ("height", "width"), (), _image(1)),
    "box_blur": (box_blur_op, ("height", "width", "size"), (), _image(1)),
    "gaussian_blur": (gaussian_blur_op, ("height", "width", "radius"),
                      ("sigma",), _image(1)),
}

_OPERATOR_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"required": ["dense"]},
        {"required": ["builder"]},
    ],
    "properties": {
        "dense": {"type": "array", "items": {"type": "array",
                                             "items": {"type": "number"}}},
        "builder": {"enum": list(OPERATOR_BUILDERS)},
        "params": {"type": "object"},
    },
    "additionalProperties": False,
}

# checked after PROBLEM_SCHEMA: as eight if/then rules in it, they tripled
# the schema check of a file with three operators (0.6 -> 1.8 ms)
_PARAMS_VALIDATORS = {
    name: Draft202012Validator({
        "properties": {**dict.fromkeys(ints, {"type": "integer"}),
                       **dict.fromkeys(numbers, {"type": "number"})},
        "additionalProperties": False,
    })
    for name, (_, ints, numbers, _) in OPERATOR_BUILDERS.items()
}

_PROX_SCHEMA = {
    "type": "object",
    "required": ["prox"],
    "properties": {
        "prox": {"type": "string"},
        "params": {"type": "object"},
    },
    "additionalProperties": False,
}


# the smooth entry: zero, or a quadratic
_SMOOTH_SCHEMA = {
    "type": "object",
    "required": ["name"],
    "properties": {
        "name": {"enum": ["zero", "quadratic_fidelity"]},
        "params": {"type": "object",
                   "properties": {"terms": {"type": "array"}},
                   "additionalProperties": False},
    },
    "additionalProperties": False,
}


_ERRORS_SCHEMA = {
    "type": "object",
    "required": ["name"],
    "properties": {
        "name": {"enum": ["zero", "geometric"]},
        "params": {"type": "object"},
    },
    "additionalProperties": False,
    "if": {"properties": {"name": {"const": "geometric"}}},
    "then": {"properties": {"params": {
        "properties": {
            "rho": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            # the maximum rules out a number that overflowed to inf
            "amplitude": {"type": "number", "minimum": 0,
                          "maximum": sys.float_info.max},
        },
        "additionalProperties": False,
    }}},
    "else": {"properties": {"params": {"maxProperties": 0}}},
}

PROBLEM_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "kind", "layout", "operators"],
    "properties": {
        "version": {"const": PROBLEM_VERSION},
        "kind": {"const": "minimization"},
        "layout": {
            "type": "object",
            "required": ["m", "s", "h_dims", "g_dims", "y_dims", "x_dims"],
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "s": {"type": "integer", "minimum": 1},
                "h_dims": {"type": "array",
                           "items": {"type": "integer", "minimum": 1}},
                "g_dims": {"type": "array",
                           "items": {"type": "integer", "minimum": 1}},
                "y_dims": {"type": "array",
                           "items": {"type": "integer", "minimum": 1}},
                "x_dims": {"type": "array",
                           "items": {"type": "integer", "minimum": 1}},
            },
            "additionalProperties": False,
        },
        "z": {"type": ["array", "null"],
              "items": {"type": "array", "items": {"type": "number"}}},
        "r": {"type": ["array", "null"],
              "items": {"type": "array", "items": {"type": "number"}}},
        "operators": {
            "type": "object",
            "required": ["M", "N", "L"],
            "properties": {
                "M": {"type": "array", "items": _OPERATOR_SCHEMA},
                "N": {"type": "array", "items": _OPERATOR_SCHEMA},
                "L": {"type": "array",
                      "items": {"type": "array", "items": _OPERATOR_SCHEMA}},
            },
            "additionalProperties": False,
        },
        "functions": {
            "type": "object",
            "properties": {
                "f": {"type": "array", "items": _PROX_SCHEMA},
                "smooth": _SMOOTH_SCHEMA,
                "g": {"type": "array", "items": _PROX_SCHEMA},
                "ell": {"type": "array", "items": _PROX_SCHEMA},
            },
            "additionalProperties": False,
        },
        "solver": {
            "type": "object",
            "properties": {
                "epsilon": {"type": ["number", "null"]},
                "gamma": {"type": ["number", "null"]},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "trace_every": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "errors": _ERRORS_SCHEMA,
    },
    "additionalProperties": False,
}

DEFAULT_SOLVER_CONFIG = {
    "epsilon": None,
    "gamma": None,
    "tol": DEFAULT_TOL,
    "max_iter": DEFAULT_MAX_ITER,
    "seed": 42,
    "trace_every": DEFAULT_TRACE_EVERY,
}

_validator = Draft202012Validator(PROBLEM_SCHEMA)


# an invalid file's report lists this many schema errors, first by path, and
# cuts each echoed value, and then each message, to this many characters
_LISTED_ERRORS = 20
_ECHO_CHARS = 120


def _check_schema(validator, doc, where=""):
    # the errors past the listed ones are only counted, so a file with
    # many errors costs no more memory than one with a few
    count = 0

    def counted(errors):
        nonlocal count
        for count, err in enumerate(errors, 1):
            yield err

    msgs = []
    for err in heapq.nsmallest(_LISTED_ERRORS, counted(
            validator.iter_errors(doc)), key=lambda e: list(e.path)):
        pointer = "/".join([where, *map(str, err.absolute_path)]) or "/"
        msgs.append(f"{pointer}: {_bounded_message(err)}")
    if count > len(msgs):
        msgs.append(f"and {count - len(msgs)} more")
    if msgs:
        raise ConfigurationError("problem file is invalid:\n  "
                                 + "\n  ".join(msgs))


def _bounded_message(err):
    """jsonschema's message, with the value it echoes cut short."""
    message, echo = err.message, repr(err.instance)
    if len(echo) > _ECHO_CHARS:
        message = message.replace(echo, echo[:_ECHO_CHARS] + "...")
    if len(message) > 2 * _ECHO_CHARS:
        message = message[:2 * _ECHO_CHARS] + "..."
    return message


@contextmanager
def _located(pointer):
    """Report a parameter error raised in the block as an error at pointer."""
    try:
        yield
    except (MonosplitError, TypeError, ValueError, OverflowError,
            MemoryError) as exc:
        # a bare MemoryError says nothing
        raise ConfigurationError(
            f"{pointer}: {str(exc) or type(exc).__name__}") from exc


def _blocks(entries, wants, where, build):
    """``build(entry, want, pointer)`` for each entry, after checking that
    there is one entry per ``want``, what the layout asks of a block."""
    if len(entries) != len(wants):
        raise ConfigurationError(
            f"{where}: expected {len(wants)} entries, got {len(entries)}")
    return [build(entry, want, f"{where}/{j}")
            for j, (entry, want) in enumerate(zip(entries, wants))]


def build_operator(entry, want, where):
    """Materialize one schema-checked operator entry of dims ``want``.

    A builder's dims are worked out from its params and checked before the
    builder runs, so a misfit entry allocates nothing.
    """
    params = entry.get("params", {})
    if "builder" in entry:
        _check_schema(_PARAMS_VALIDATORS[entry["builder"]], params,
                      f"{where}/params")
    with _located(where):
        if "dense" in entry:
            op = dense_op(entry["dense"], tag=where)
            dims, build = (op.in_dim, op.out_dim), lambda: op
        else:
            constructor, ints, _, dims_of = OPERATOR_BUILDERS[entry["builder"]]
            # typed by now; the schema also admits 10.0 as an integer
            kwargs = {k: int(v) if k in ints else v for k, v in params.items()}
            args = inspect.signature(constructor).bind(**kwargs)
            args.apply_defaults()
            dims, build = dims_of(args.arguments), partial(constructor, **kwargs)
    if dims != want:
        raise ConfigurationError(
            f"{where}: operator has dims {dims[0]}->{dims[1]}, "
            f"layout requires {want[0]}->{want[1]}"
        )
    with _located(where):
        return build()


def _function(entry, dim, where):
    with _located(where):
        return make_function(entry["prox"], entry.get("params", {}), dim)


def _build_smooth(entry, dim, where):
    if not entry or entry["name"] == "zero":
        return zero_smooth(dim)
    with _located(where):
        return quadratic_smooth(entry.get("params", {}).get("terms", []), dim)


def _vector(entry, dim, where):
    with _located(where):
        vec = np.asarray(entry, dtype=float)
    if vec.shape != (dim,):
        raise ConfigurationError(
            f"{where}: expected length {dim}, got {vec.size}")
    return vec


def _vectors(entries, dims, where, dims_where):
    if entries is None:
        # the schema bounds no dim, so numpy may refuse or fail to allocate
        try:
            return [np.zeros(d) for d in dims]
        except (ValueError, MemoryError) as exc:
            raise ConfigurationError(
                f"/{dims_where}: cannot allocate the zero {where} vectors: "
                f"{exc}") from exc
    return _blocks(entries, dims, f"/{where}", _vector)


def parse_problem(doc):
    """Validate a problem document and assemble the runnable pieces.

    The document's ``kind`` must be ``"minimization"``.  Returns a dict
    with keys ``system``, ``min_spec`` (the system's
    :class:`MinimizationSpec`), ``solver`` (config dict with defaults
    filled) and ``errors`` (an ErrorSchedule).
    """
    _check_schema(_validator, doc)
    lay = doc["layout"]
    if lay["m"] != len(lay["h_dims"]):
        raise ConfigurationError("/layout/m: does not match len(h_dims)")
    for key in ("g_dims", "y_dims", "x_dims"):
        if lay["s"] != len(lay[key]):
            raise ConfigurationError(f"/layout/s: does not match len({key})")
    layout = SpaceLayout(lay["h_dims"], lay["g_dims"], lay["y_dims"],
                         lay["x_dims"])

    z = _vectors(doc.get("z"), layout.h_dims, "z", "layout/h_dims")
    r = _vectors(doc.get("r"), layout.g_dims, "r", "layout/g_dims")

    ops = doc["operators"]
    M = _blocks(ops["M"], list(zip(layout.g_dims, layout.y_dims)),
                "/operators/M", build_operator)
    N = _blocks(ops["N"], list(zip(layout.g_dims, layout.x_dims)),
                "/operators/N", build_operator)
    L = _blocks(ops["L"], layout.g_dims, "/operators/L",
                lambda row, g, where: _blocks(
                    row, [(h, g) for h in layout.h_dims], where,
                    build_operator))

    funcs = doc.get("functions", {})
    f, g, ell = (_blocks(funcs.get(key, []), dims, f"/functions/{key}",
                         _function)
                 for key, dims in (("f", layout.h_dims), ("g", layout.y_dims),
                                   ("ell", layout.x_dims)))
    phi = _build_smooth(funcs.get("smooth"), int(sum(layout.h_dims)),
                        "/functions/smooth")
    min_spec = MinimizationSpec(layout=layout, f=f, phi=phi, g=g, ell=ell,
                                M=M, N=N, L=L, z=z, r=r)
    system = build_system(min_spec)

    solver_cfg = dict(DEFAULT_SOLVER_CONFIG)
    solver_cfg.update(doc.get("solver", {}))
    # the schema admits 50.0 as an integer; the solver counts with ints
    for key in ("max_iter", "seed", "trace_every"):
        solver_cfg[key] = int(solver_cfg[key])
    # and 10**400 as a number, which no double holds
    for key in ("tol", "epsilon", "gamma"):
        if solver_cfg[key] is not None:
            with _located(f"/solver/{key}"):
                solver_cfg[key] = float(solver_cfg[key])

    err_entry = doc.get("errors", {"name": "zero"})
    if err_entry["name"] == "zero":
        schedule = zero_schedule()
    else:
        params = err_entry.get("params", {})
        # a NaN passes every schema bound
        with _located("/errors/params"):
            schedule = geometric_schedule(params.get("rho", 0.9),
                                          params.get("amplitude", 0.1),
                                          seed=solver_cfg["seed"])

    return {
        "system": system,
        "min_spec": min_spec,
        "solver": solver_cfg,
        "errors": schedule,
    }


def _reject_constant(name):
    raise ConfigurationError(f"not valid JSON: {name} is not a JSON number")


def _finite_float(literal):
    """``float(literal)``, refusing a literal that rounds to an infinity."""
    value = float(literal)
    if math.isinf(value):
        raise ConfigurationError(
            f"number {literal} is out of the range of a double")
    return value


def _bounded_int(literal):
    """``int(literal)``, refusing a literal past Python's int-string limit
    with a message about the file rather than about the interpreter."""
    limit = sys.get_int_max_str_digits()
    if limit and len(literal.lstrip("-")) > limit:
        raise ConfigurationError(
            f"not valid JSON: integer literal longer than {limit} digits")
    return int(literal)


def load_problem(path):
    """Read and parse a problem file from disk.

    A number literal too large for a double, which ``json`` would read as
    an infinity, is a :class:`ConfigurationError`, and so are an integer
    literal past Python's int-string limit (4300 digits) and nesting
    deeper than the decoder's recursion limit.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite_float,
                            parse_int=_bounded_int,
                            parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read problem file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"problem file {path} is not UTF-8 text: {exc}") from exc
    # a JSONDecodeError, or nesting past the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"not valid JSON: {exc}") from exc
    return parse_problem(doc)
