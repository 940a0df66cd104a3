"""Light value classes: the stdlib dataclass module would load inspect, ast and dis."""

_MISSING = object()


class default_factory:
    """A field default built afresh for each instance: ``tags: dict = default_factory(dict)``."""

    def __init__(self, make):
        self.make = make


def reject_unknown_keys(obj, keys, where: str):
    """Raise ValueError naming obj's first key not in keys when obj is a JSON object."""
    if isinstance(obj, dict) and (extra := [k for k in obj if k not in keys]):
        raise ValueError(f"unknown key {extra[0]!r} in {where}")


def _eq(self, other):
    return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented


def _repr(self):
    args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
    return f"{self.__class__.__qualname__}({args})"


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


def value_class(cls):
    """@dataclass(frozen=True) in small; cls._fields lists the fields, base class's first."""
    own = cls.__dict__.get("__annotations__", {})
    names = tuple(dict.fromkeys((*getattr(cls, "_fields", ()), *own)))
    env, params, body = {"_MISSING": _MISSING}, [], ["_dict = self.__dict__"]
    for n in names:
        default = env[f"_d_{n}"] = getattr(cls, n, _MISSING)
        fresh = isinstance(default, default_factory)
        params.append(n if default is _MISSING else f"{n}=_MISSING" if fresh else f"{n}=_d_{n}")
        value = f"_d_{n}.make() if {n} is _MISSING else {n}" if fresh else n
        body.append(f"_dict[{n!r}] = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body)
         + f"\ndef _key(self):\n return ({''.join(f'self.{n}, ' for n in names)})", env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__, cls._key, cls._fields = env["__init__"], env["_key"], names
    cls.__eq__, cls.__repr__, cls.__hash__ = _eq, _repr, lambda self: hash(self._key())
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
