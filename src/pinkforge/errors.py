"""Errors shared across modules."""


class TooLarge(RuntimeError):
    """A size or cap was reached before the question was decided."""
