"""Immutable value records built without generated code.

``record`` gives a class with annotated fields what
``dataclasses.dataclass(frozen=True)`` would: a constructor taking the
fields positionally or by keyword, with the class-level defaults and a
call to ``__post_init__``; assignment and deletion that raise
``AttributeError``; equality and hashing by value; and the dataclass
``repr``.  The methods are closures over the field names, so decorating
a class executes no source text, which keeps the package's import cheap.
"""

from __future__ import annotations

__all__ = ["record"]


def record(cls):
    """Make ``cls`` an immutable value record over its annotated fields."""
    names = tuple(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes at most {len(names)} "
                            f"positional arguments ({len(args)} given)")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                if name not in defaults:
                    raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
                values[name] = defaults[name]
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def fields(self):
        return tuple(getattr(self, name) for name in names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({inner})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        setattr(cls, method.__name__, method)
    return cls
