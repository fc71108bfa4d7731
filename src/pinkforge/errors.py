"""The three errors a `pink` command turns into an exit code."""


class CheckFailed(Exception):
    """A mathematical check failed (exit 1)."""


class InvalidInput(Exception):
    """Input the command cannot use, found after parsing (exit 2)."""


class TooLarge(Exception):
    """A size or cap was reached before the question was decided (exit 3)."""
