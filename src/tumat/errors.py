"""Exceptions shared across the package, and the one way their messages quote a value."""


class ShapeError(ValueError):
    """An argument violates a documented precondition (dimensions, labels, kind)."""


class SizeGuardError(RuntimeError):
    """An input exceeds a size guard for an exponential-cost operation.

    Guards exist so that a desk-scale tool fails loudly instead of hanging.
    Each guard is a module constant, and every guard can be lifted:
    ``is_totally_unimodular``, ``find_tu_signing``, ``is_tu_signing_of``,
    ``standardize_tu``, ``is_regular`` and ``zmod_linear_independent`` take
    a ``force`` flag, and ``matroids_equal`` takes a ``limit``, which the
    CLI's ``--force`` sets to ``math.inf``.
    """


def _shown(value) -> str:
    """The value quoted; past 40 characters of a string, or else of its repr, the first 40 and the length."""
    try:
        text = value if isinstance(value, str) else repr(value)
    except ValueError:  # an int past the digit limit has no repr
        return f"a {type(value).__name__} too large to show"
    if len(text) > 40:
        return f"{text[:40]!r}... ({len(text)} characters)"
    return repr(value)
