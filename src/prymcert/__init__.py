"""prymcert: exact-arithmetic certification of an eigenspace elimination on (P^1)^4."""

__version__ = "0.1.0"


class CheckFailed(AssertionError):
    """A check of the model failed; the CLI prints it as one Fail line, exit 1."""
