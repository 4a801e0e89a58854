"""The one way ywx declares the records a model load builds."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import TypeVar

_T = TypeVar("_T", bound=type)


def record(cls: _T) -> _T:
    """Make ``cls`` a frozen, slotted dataclass with a cheap ``__init__``.

    Every command rebuilds its model from the scripts or a model file, and
    one load of a 0.9k-line script builds about 1,900 records: ports,
    blocks, endpoints and channels. Its comments and annotations stay plain
    tuples; only the public parsers and ``extract``'s listing make records
    of them. A frozen dataclass's
    own ``__init__`` must store each field through ``object.__setattr__``,
    to get past the ``__setattr__`` that makes it frozen. This ``__init__``
    stores each field through its slot's descriptor instead, which that
    ``__setattr__`` does not guard, and builds a record in about half the
    time (1.1 against 2.0-2.5 us for six fields on Python 3.10-3.13).
    Everything else is the dataclass's
    own: the fields and their defaults, ``repr``, ``==``, ``hash``,
    ``dataclasses.replace`` and the ``FrozenInstanceError`` on assignment.

    The fields live in slots, not an instance ``__dict__``: a record takes
    80 bytes, not about 180 with its dict, and a load leaves the garbage
    collector fewer objects to track. So ``vars()`` fails on a record.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    namespace: dict[str, object] = {}
    params: list[str] = []
    stores: list[str] = []
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init:
            raise TypeError(f"{cls.__name__}.{f.name}: a record field takes a plain default")
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        stores.append(f"\n    _set_{f.name}(self, {f.name})")
    exec(f"def __init__(self, {', '.join(params)}):{''.join(stores)}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # type: ignore[attr-defined]
    cls.__init__ = init  # type: ignore[misc]
    return cls
