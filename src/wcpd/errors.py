__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to produce a usable result."""
