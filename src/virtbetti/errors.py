"""Structured exceptions and the shared value types ``Record`` and ``Verdict``."""

from __future__ import annotations

from collections.abc import Mapping
from contextvars import ContextVar

# {(id, id): (verdict, record, record)} for the top-level == this context runs:
# a record shared by several parents is compared once, not once per path to
# it, which took 2^k steps on a k-level diamond of ``boundary_strata``
_COMPARED = ContextVar("virtbetti_compared_records", default=None)


class Record:
    """The one base class of the package's value types.

    A subclass declares its fields as class annotations and gets what
    ``@dataclass(frozen=True)`` would give it, with no ``exec`` and no
    ``inspect``: an ``__init__`` by position or keyword, a class attribute
    being a field's default, that ends in ``__post_init__``; immutability;
    and ``__eq__``, ``__hash__`` and ``__repr__`` over the field tuple.  Under
    ``python -X importtime`` on Python 3.11, ``import dataclasses`` took
    12.7 ms and the 28 decorators this replaced 29.8 ms of every CLI command.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__annotations__)  # own annotations only, on 3.10+

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):  # not every field by position
            rest = cls._fields[len(args):]
            missing = [name for name in rest if name not in kwargs and not hasattr(cls, name)]
            if len(args) > len(cls._fields) or missing or kwargs.keys() - set(rest):
                raise TypeError(f"{cls.__name__} takes {cls._fields}, not {len(args)} positional and {sorted(kwargs)}")
            args += tuple(kwargs.get(name, getattr(cls, name, None)) for name in rest)
        fields = self.__dict__
        for name, value in zip(cls._fields, args):
            fields[name] = value
        self.__post_init__()

    def __post_init__(self):
        pass

    @classmethod
    def _trusted(cls, *values):
        """Every field by position, without ``__post_init__``: for values
        that meet its checks by construction."""
        self = cls.__new__(cls)
        self.__dict__.update(zip(cls._fields, values))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        compared = _COMPARED.get()
        if compared is None:  # a top-level ==: its verdicts are kept until it returns
            token = _COMPARED.set({})
            try:
                return self.__eq__(other)
            finally:
                _COMPARED.reset(token)
        key = (id(self), id(other))
        if key not in compared:  # the pair is held, so neither id is reused meanwhile
            compared[key] = (self._values() == other._values(), self, other)
        return compared[key][0]

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({args})"


class VirtBettiError(Exception):
    """Base class for every structured error raised by this package.

    Each error carries a machine-readable ``code`` plus free-form context,
    so the CLI can emit ``{code, message, context}`` on stderr.
    """

    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = dict(context)

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "context": self.context}


class NotFaceClosed(VirtBettiError):
    code = "not-face-closed"


class UnknownVertex(VirtBettiError):
    code = "unknown-vertex"


class TooManySimplices(VirtBettiError):
    code = "too-many-simplices"


class WeightSearchTooLarge(VirtBettiError):
    code = "weight-search-too-large"


class UnknownAtom(VirtBettiError):
    code = "unknown-atom"


class MissingBoundaryData(VirtBettiError):
    code = "missing-boundary-data"


class DimensionMismatch(VirtBettiError):
    code = "dimension-mismatch"


class MissingIntersection(VirtBettiError):
    code = "missing-intersection"


class NotAPartition(VirtBettiError):
    code = "not-a-partition"


class NotACover(VirtBettiError):
    code = "not-a-cover"


class ConvergenceMismatch(VirtBettiError):
    code = "convergence-mismatch"


class MalformedConstraint(VirtBettiError):
    code = "malformed-constraint"


class InvalidStratification(VirtBettiError):
    code = "invalid-stratification"


class SceneError(VirtBettiError):
    code = "scene-error"


class UnknownName(VirtBettiError):
    code = "unknown-name"


def json_int(value, what: str, error: type[VirtBettiError], **context) -> int:
    """``value`` if it is a JSON integer (an int, not a bool); ``error`` otherwise.

    Read files are checked, never coerced: ``int()`` would take 1.9 as 1,
    "1" as 1 and true as 1.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    text = repr(value)  # a value nested too deeply raises RecursionError here
    text = text if len(text) <= 60 else text[:60] + "..."
    raise error(f"{what} must be an integer, not {text}", **context)


_JSON_TYPES = {"object": Mapping, "array": (list, tuple), "boolean": bool, "string": str}


def json_value(value, what: str, kind: str, error: type[VirtBettiError]):
    """``value`` if it is a JSON ``kind`` (object, array, boolean or string);
    ``error`` otherwise.  Checked, never coerced: ``str()`` of a list is
    Python's repr, and ``bool("false")`` is true."""
    if not isinstance(value, _JSON_TYPES[kind]):
        found = type(value).__name__
        raise error(f"{what} must be a JSON {kind}, not {found}", found=found)
    return value


def read_json(path: str, what: str, error: type[VirtBettiError]):
    """The JSON document in file ``path``; ``error`` if it cannot be read or parsed."""
    import json  # only a file reader needs it: ``import virtbetti.simplicial`` does not

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}", path=path) from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise error(f"{what} is not valid JSON: {exc}", path=path) from None


class Verdict(Record):
    """Outcome of a consistency check: truthiness plus a human-readable reason."""

    holds: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds
