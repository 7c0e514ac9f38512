"""Exception types shared across the library and the CLI; ``cli.main`` maps
them onto process exit codes."""


class ShapeError(ValueError):
    """Operand shapes are mutually inconsistent; the message names both."""


class SchemaError(ValueError):
    """An input file does not match its documented JSON schema."""


class SizeBudgetError(ValueError):
    """A size (elements, draws or bytes) would exceed the 2**31-1 budget."""


class NonFactorizableError(ValueError):
    """A flat vector is not a Kronecker product with the requested dims."""


class NonFiniteError(ValueError):
    """A value that must be finite is NaN or infinite, e.g. after overflow."""


class DegenerateRowError(ValueError):
    """softmax over a row whose entries are all -inf is undefined."""
