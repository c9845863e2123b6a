"""Frozen value classes without the dataclasses module.

Every evenk command is a fresh process, so what the package costs to
import is paid on each one.  `dataclasses` pulls in inspect, ast, dis
and tokenize, and each decoration generates and compiles its methods
while the module loads; Value gives the same behaviour from a class's
__slots__ instead.
"""


class Value:
    """A frozen value whose fields are its class's __slots__, in order.

    __init__ takes the fields by position or keyword, falls back on the
    class's _defaults, refuses a list, dict or set field with TypeError,
    then calls __post_init__.  Equality and hash go by type and fields,
    so a value never equals or hashes like the tuple of its fields, and
    every value can hash; repr reads Name(field=value, ...).  Assigning
    or deleting a field raises AttributeError.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        name = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} arguments, got {len(args)}")
        values = list(args)
        for field in names[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected argument {next(iter(kwargs))!r}")
        for field, value in zip(names, values):
            if isinstance(value, (list, dict, set)):
                raise TypeError(f"{name}() field {field!r} is a mutable {type(value).__name__}")
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; the default accepts any."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((self.__class__, *self._fields()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which assigning
        # through a frozen __setattr__ could not
        return self.__class__, self._fields()
