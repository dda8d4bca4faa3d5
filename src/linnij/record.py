"""The immutable base of the package's result records.

A record subclasses :class:`Record` and lists its fields, in constructor
order, in ``__slots__``; that tuple is the only place the fields are named.
``Record(*values)`` fills them positionally, assignment and deletion raise,
and records compare and hash by their field values.  Subclasses add methods
and properties but no fields beyond their own ``__slots__``, and derive
directly from ``Record``.

``copy``, ``deepcopy`` and ``pickle`` rebuild a record by :func:`_restore`,
which fills a new one through ``Record.__init__`` from the field values of
one that was already built, so a subclass's own checks are not run again
and the immutability guard is never passed.
"""

_set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *values):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(
                "%s takes %d values, got %d"
                % (type(self).__name__, len(fields), len(values))
            )
        for name, value in zip(fields, values):
            _set_field(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __reduce__(self):
        return _restore, (type(self), self._values())

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


def _restore(cls, values: tuple) -> Record:
    """The record of class ``cls`` with the field ``values``, in
    ``__slots__`` order, filled by ``Record.__init__`` without the
    subclass's constructor."""
    record = object.__new__(cls)
    Record.__init__(record, *values)
    return record
