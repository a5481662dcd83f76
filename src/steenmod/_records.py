"""Field-wise equality and hashing for the package's small record classes.

The records are plain ``__slots__`` classes; a record that is compared
sets ``__eq__ = fields_equal``, and a value used as a key also sets
``__hash__ = fields_hash``.  Both read the fields named in ``__slots__``.
"""


def fields_equal(a, b) -> bool:
    """Whether b is of a's class and every slot of the two is equal."""
    return type(a) is type(b) and all(
        getattr(a, f) == getattr(b, f) for f in a.__slots__)


def fields_hash(a) -> int:
    return hash(tuple(getattr(a, f) for f in a.__slots__))
