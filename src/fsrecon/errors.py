"""Shared exception types.  The CLI maps these onto exit codes."""


class DomainError(ValueError):
    """An argument is outside an operation's domain (wrong parity, wrong
    group, non-coprime moduli, ...)."""


class GroupMismatchError(DomainError):
    """Two values that must live in the same group do not."""


class ResourceCapError(RuntimeError):
    """A size or budget cap would be exceeded."""


class VerificationError(RuntimeError):
    """An internal consistency check that must always hold has failed."""
