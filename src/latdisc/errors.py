"""Exception types shared across the package."""


class LatdiscError(Exception):
    """Base class for package-specific failures."""


class EnumerationCapExceeded(LatdiscError):
    """Point enumeration would produce more points than the configured cap."""


class DimensionGuardError(LatdiscError):
    """Exact enumeration requested beyond the supported dimension."""


class EmptyBodyError(LatdiscError):
    """A convex body turned out to be empty (violates its type invariant)."""
