"""Exceptions shared across the package."""


class ShapeError(ValueError):
    """An argument violates a documented precondition (dimensions, labels, kind)."""


class SizeGuardError(RuntimeError):
    """An input exceeds a size guard for an exponential-cost operation.

    Guards exist so that a desk-scale tool fails loudly instead of hanging.
    Every guard can be lifted: ``is_totally_unimodular``, ``find_tu_signing``,
    ``is_tu_signing_of``, ``standardize_tu``, ``is_regular`` and
    ``zmod_linear_independent`` take a ``force`` flag, and ``matroids_equal``
    takes a ``limit``, which the CLI's ``--force`` sets to ``math.inf``.
    """
