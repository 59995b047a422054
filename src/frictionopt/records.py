"""Frozen records: ``@record`` stands in for ``@dataclass(frozen=True)``
without generating code.

A frozen dataclass compiles about six methods per class at import, in every
process.  ``record`` registers the fields through ``dataclasses.dataclass``
with generation off, so ``dataclasses.fields``, ``asdict`` and ``replace``
accept a record, and installs the six shared methods below, which read
tuples computed once per class.  A record class defines none of them itself.
"""

import dataclasses
from dataclasses import MISSING, FrozenInstanceError

_set = object.__setattr__


def _values(obj, names: tuple) -> tuple:
    return tuple(getattr(obj, name) for name in names)


def _argument_error(cls: type, problem: str) -> TypeError:
    return TypeError(f"{cls.__qualname__}.__init__() {problem}")


def __init__(self, *args, **kwargs) -> None:
    cls = type(self)
    names = cls._record_init
    if len(args) > len(names):
        raise _argument_error(cls, f"takes {len(names) + 1} positional arguments but {len(args) + 1} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name in values:
            raise _argument_error(cls, f"got multiple values for argument {name!r}")
        values[name] = value
    for name, init, default in cls._record_fields:
        if init and name in values:
            value = values.pop(name)
        elif init and default is not MISSING:
            value = default
        elif init:
            raise _argument_error(cls, f"missing 1 required positional argument: {name!r}")
        else:
            continue  # init=False: __post_init__ or the class default supplies it
        _set(self, name, value)
    if values:
        raise _argument_error(cls, f"got an unexpected keyword argument {next(iter(values))!r}")
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        post_init(self)


def __repr__(self) -> str:
    cls = type(self)
    return f"{cls.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in cls._record_repr)})"


def __eq__(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    names = type(self)._record_compare
    return _values(self, names) == _values(other, names)


def __hash__(self) -> int:
    return hash(_values(self, type(self)._record_compare))


def __setattr__(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def __delattr__(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """Declare cls a frozen record: its annotated fields, as a dataclass's."""
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    cls._record_fields = tuple((f.name, f.init, f.default) for f in fields)
    cls._record_init = tuple(f.name for f in fields if f.init)
    cls._record_repr = tuple(f.name for f in fields if f.repr)
    cls._record_compare = tuple(f.name for f in fields if f.compare)
    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls
