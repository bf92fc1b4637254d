"""Exception types shared across the package."""


class MaxsegError(Exception):
    """Base class for every package-specific error."""


class EmptySequence(MaxsegError):
    """A sequence must contain at least one item."""


class NonPositiveWeight(MaxsegError):
    """An item weight was zero, negative, or NaN."""

    def __init__(self, index: int):
        super().__init__(f"item {index}: weight must be > 0")
        self.index = index


class NonFiniteItem(MaxsegError):
    """An item value was NaN or infinite, or an item weight was +inf."""

    def __init__(self, index: int):
        super().__init__(f"item {index}: value and weight must be finite")
        self.index = index


class IndexOutOfRange(MaxsegError):
    """A 1-based index or index range fell outside the sequence."""


class InfeasibleWidthWindow(MaxsegError):
    """No segment satisfies the requested width bounds."""


class QueryOrderViolation(MaxsegError):
    """Sweep queries must use strictly decreasing left indices."""


class InfeasibleQuery(MaxsegError):
    """The queried left index has no feasible endpoint this structure can serve."""


class RangeViolation(MaxsegError):
    """The query's endpoint cap lies left of the structure's range."""


class NonUniformInput(MaxsegError):
    """Operation requires equal item weights, but the sequence mixes weights."""


class CapExceeded(MaxsegError):
    """Brute-force oracle input larger than its configured cap."""


class MalformedFasta(MaxsegError):
    """FASTA input violated the record grammar."""

    def __init__(self, line: int, message: str = "malformed FASTA"):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedTsv(MaxsegError):
    """Weighted TSV input violated the two-column grammar."""

    def __init__(self, line: int, message: str = "malformed TSV"):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownSymbol(MaxsegError):
    """Strict mode rejected a nucleotide symbol outside the known alphabet."""

    def __init__(self, symbol: str, position: int):
        super().__init__(f"position {position}: unknown symbol {symbol!r}")
        self.symbol = symbol
        self.position = position
