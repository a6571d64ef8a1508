"""Exception types shared across the package."""

import copyreg


class LoopforgeError(Exception):
    """Base class for every error raised by this package."""

    def __reduce__(self):
        """Pickled as its args and attributes, rebuilt without calling
        __init__, whose parameters differ by subclass; so an error keeps
        its type, message and attributes across a worker's pipe."""
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class NotSquare(LoopforgeError):
    """Raw table is not an n x n integer matrix."""


class NotLatin(LoopforgeError):
    """A row or column repeats an entry or leaves the value range."""


class NoIdentity(LoopforgeError):
    """No element acts as a two-sided identity."""


class DegreeMismatch(LoopforgeError):
    """Permutations of different degrees were combined."""


class InvariantViolation(LoopforgeError, AssertionError):
    """An internal consistency check failed.  Raised explicitly, so python -O
    keeps it; an AssertionError too, for callers that catch those."""


class NotSElements(LoopforgeError):
    """An isotope parameter lies outside the chosen subgroup."""


class NotSLoop(LoopforgeError):
    """The loop has no proper non-trivial subgroup, or the chosen one is unusable."""


class OrderTooLarge(LoopforgeError):
    """Requested order is outside the supported exhaustive range."""


class ParseError(LoopforgeError):
    """Malformed table text.  Carries a 1-based line and token position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class SearchCapExceeded(LoopforgeError):
    """A search was requested on a loop larger than the configured cap."""

    def __init__(self, order: int, cap: int):
        self.order = order
        self.cap = cap
        super().__init__(f"order {order} exceeds the search cap {cap}")
