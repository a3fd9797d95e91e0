"""Immutable value records, built without the dataclasses module.

A record's own __init__ checks its arguments, stores each with set_field and
stores last their tuple as _key; its parameters are the record's fields.
Record compares and hashes that key (once built, it costs one tuple
operation), prints the dataclass repr and refuses assignment and deletion.
cached_property still works: it writes the instance __dict__ directly.
"""

# how a record's __init__ stores a field past the refusing __setattr__
set_field = object.__setattr__


class Record:
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        code = type(self).__init__.__code__
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(
            code.co_varnames[1:code.co_argcount], self._key))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
