"""Exception types shared across the package, and the helpers that keep a
long value short in their messages."""


class DomainError(ValueError):
    """An operation was called with input outside its domain."""


class ProfileError(DomainError):
    """Eigenvalue data does not describe a genuine finite group action."""


def quoted(value, limit: int = 40) -> str:
    """``repr(value)`` for an error message, cut short when it is long.

    A string longer than ``limit`` characters is cut to its first ``limit``
    and then quoted; the repr of any other value is cut to its first
    ``limit`` characters.  Either is followed by an ellipsis, so a huge
    literal, list or object cannot flood the message.
    """
    if isinstance(value, str):
        return f"{value[:limit]!r}…" if len(value) > limit else repr(value)
    text = repr(value)
    return text if len(text) <= limit else f"{text[:limit]}…"


def clipped(value, limit: int = 40) -> str:
    """``str(value)`` for an error message, cut like :func:`quoted`.

    A value longer than ``limit`` characters is cut to its first ``limit``
    and followed by an ellipsis.
    """
    text = str(value)
    return text if len(text) <= limit else f"{text[:limit]}…"
