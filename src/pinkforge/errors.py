"""Errors shared across modules."""


class TooLarge(RuntimeError):
    """A size or cap was reached before the question was decided."""


class InvalidInput(Exception):
    """Input the command cannot use, found after parsing (exit 2)."""
