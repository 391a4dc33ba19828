"""Exception types shared across the package, and the helpers that keep a
long value short in their messages."""


class DomainError(ValueError):
    """An operation was called with input outside its domain."""


class ProfileError(DomainError):
    """Eigenvalue data does not describe a genuine finite group action."""


def quoted(value, limit: int = 40) -> str:
    """``repr(value)`` for an error message, with a long string cut short.

    A string longer than ``limit`` characters is cut to its first ``limit``
    and followed by an ellipsis, so a huge literal cannot flood the message.
    """
    if isinstance(value, str) and len(value) > limit:
        return f"{value[:limit]!r}…"
    return repr(value)


def clipped(value, limit: int = 40) -> str:
    """``str(value)`` for an error message, cut like :func:`quoted`.

    A value longer than ``limit`` characters is cut to its first ``limit``
    and followed by an ellipsis.
    """
    text = str(value)
    return text if len(text) <= limit else f"{text[:limit]}…"
