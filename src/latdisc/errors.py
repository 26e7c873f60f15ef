"""Exception types and the input vocabulary shared across the package.

Every boundary (the campaign spec, body files, CLI flags and Python
arguments) checks its inputs against rules. A rule is a pair (what a value
must be, predicate), and `require` refuses a value that breaks it with
ValueError("<name> must be <what>, got <value!r>"). `check_object` checks a
JSON object's fields against a table of rules.
"""

import math
import sys


class LatdiscError(Exception):
    """Base class for package-specific failures."""


class EnumerationCapExceeded(LatdiscError):
    """Point enumeration would produce more points than the configured cap."""


class DimensionGuardError(LatdiscError):
    """Exact enumeration requested beyond the supported dimension."""


class EmptyBodyError(LatdiscError):
    """A convex body turned out to be empty (violates its type invariant)."""


def is_int(x) -> bool:
    """An int; a bool is not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A float, or an int that a float can hold: the checks compute in floats."""
    return isinstance(x, float) or is_int(x) and abs(x) <= sys.float_info.max


def is_finite(x) -> bool:
    return is_real(x) and math.isfinite(x)


def int_at_least(lo: int):
    return lambda x: is_int(x) and x >= lo


def list_of(ok):
    """A list or tuple whose every entry passes `ok`."""
    return lambda v: isinstance(v, (list, tuple)) and all(ok(x) for x in v)


INTEGER = ("an integer", is_int)
COUNT = ("an integer >= 1", int_at_least(1))
SIZE = ("an integer >= 0", int_at_least(0))
DIMS = ("a list of integers >= 1", list_of(int_at_least(1)))
FINITE = ("a finite number", is_finite)
TOL = ("a finite positive number", lambda v: is_finite(v) and v > 0)
RHO = ("a number in [0, 1]", lambda v: is_real(v) and 0 <= v <= 1)  # parallel bodies in the cube
# the Remark's delta and kappa (nan fails every comparison)
DELTA = ("a number in (0, 2/3)", lambda v: is_real(v) and 0 < v < 2 / 3)
KAPPA = (
    "a finite number above e (2 pi)^(1/3)",
    lambda v: is_finite(v) and v > math.e * (2 * math.pi) ** (1 / 3),
)
VECTOR = ("a non-empty list of finite numbers", lambda v: list_of(is_finite)(v) and len(v) > 0)
ROWS = (
    "a non-empty list of equally long, non-empty lists of finite numbers",
    lambda v: list_of(VECTOR[1])(v) and len({len(row) for row in v}) == 1,
)


def require(name: str, value, rule):
    """`value`, unless it breaks `rule`: then ValueError naming `name`."""
    what, ok = rule
    if not ok(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def check_object(raw, where: str, rules: dict, required: bool = True) -> dict:
    """`raw`, checked as the JSON object `where` with the fields of `rules`.
    ValueError names the first fault: `raw` is not an object, it has keys
    that `rules` lacks, a field is absent (unless not `required`), or the
    field `<where>.<name>` breaks its rule."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be an object, got {raw!r}")
    unknown = sorted(map(str, set(raw) - set(rules)))
    if unknown:
        raise ValueError(f"unknown {where} field(s): {', '.join(unknown)}")
    for name, rule in rules.items():
        if name in raw:
            require(f"{where}.{name}", raw[name], rule)
        elif required:
            raise ValueError(f"{where} is missing the field {name!r}")
    return raw
