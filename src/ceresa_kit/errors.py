"""Exception types shared across the package."""


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
    """``str(value)`` of an int or Fraction for an error message, cut like :func:`quoted`.

    A value longer than ``limit`` characters is cut to its first ``limit``
    and followed by an ellipsis.  Only leading digits of a long numerator or
    denominator are converted, so a value beyond CPython's int-to-string
    limit is shown too.
    """
    parts = [abs(value.numerator)] + ([value.denominator] if value.denominator != 1 else [])
    text = ("-" if value < 0 else "") + "/".join(_head(n, limit) for n in parts)
    return text if len(text) <= limit else f"{text[:limit]}…"


def _head(n: int, limit: int) -> str:
    # str(n) for n >= 0, or, when n has more than `limit` digits, a prefix
    # of it longer than `limit`: n.bit_length() * log10(2) is below n's digit
    # count plus one, so n // 10^drop keeps at least limit + 2 digits.
    if n < 10**limit:
        return str(n)
    drop = max(0, n.bit_length() * 30103 // 100000 - limit - 2)
    return str(n // 10**drop)
