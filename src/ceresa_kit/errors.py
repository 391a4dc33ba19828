"""Exception types shared across the package, the helpers that keep a long
value short in their messages, and an open() that refuses a path by OSError."""

import errno

#: Most characters of a value that an error message repeats.
MAX_VALUE_CHARS = 40


class DomainError(ValueError):
    """An operation was called with input outside its domain."""


class ProfileError(DomainError):
    """Eigenvalue data does not describe a genuine finite group action."""


def quoted(value) -> str:
    """``repr(value)`` for an error message, cut short when it is long.

    A string whose repr holds more than ``MAX_VALUE_CHARS`` characters
    between its quotes, escapes included, is cut to its longest prefix whose
    repr does not, and then quoted; any other value's repr is cut as
    :func:`clipped` cuts it.  An ellipsis marks the cut, so no value can
    flood the message.
    """
    if not isinstance(value, str):
        return clipped(repr(value))
    cut = value[:MAX_VALUE_CHARS]
    while len(repr(cut)) > MAX_VALUE_CHARS + 2:  # a character escaped as up to 10
        cut = cut[:-1]
    return repr(value) if cut == value else f"{cut!r}…"


def clipped(value) -> str:
    """``str(value)`` for an error message, cut to its first
    ``MAX_VALUE_CHARS`` characters and an ellipsis when it is longer."""
    text = str(value)
    return text if len(text) <= MAX_VALUE_CHARS else f"{text[:MAX_VALUE_CHARS]}…"


def open_path(path: str, *args, **kwargs):
    """open(), with the ValueError it gives a path with a NUL byte raised as an OSError."""
    try:
        return open(path, *args, **kwargs)
    except ValueError as exc:
        raise OSError(errno.EINVAL, str(exc)) from exc
