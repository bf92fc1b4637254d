"""Maximum-density segment search on weighted sequences with width bounds.

The library finds, for a sequence of (value, weight) items and width bounds
L <= U, a consecutive run whose value sum divided by weight sum is maximal
among runs of width within [L, U].  Decimal inputs are scaled onto integer
grids so every density comparison is exact.
"""

from .bio import (
    DnaRecord,
    MappingSpec,
    compress_runs,
    map_to_sequence,
    parse_fasta,
    parse_tsv,
)
from .core import (
    DensityValue,
    OpCounters,
    Segment,
    WeightedItem,
    WeightedSequence,
    build_sequence,
    density,
    make_segment,
)
from .errors import (
    CapExceeded,
    EmptySequence,
    IndexOutOfRange,
    InfeasibleWidthWindow,
    MalformedFasta,
    MalformedTsv,
    MaxsegError,
    NonPositiveWeight,
    NonUniformInput,
    UnknownSymbol,
)
from .oracle import brute_force_best, brute_force_partition
from .solvers import (
    SolveRequest,
    max_density_general,
    max_density_min_width,
    max_density_uniform,
    sliding_window,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "DensityValue",
    "DnaRecord",
    "EmptySequence",
    "IndexOutOfRange",
    "InfeasibleWidthWindow",
    "MalformedFasta",
    "MalformedTsv",
    "MappingSpec",
    "MaxsegError",
    "NonPositiveWeight",
    "NonUniformInput",
    "OpCounters",
    "Segment",
    "SolveRequest",
    "UnknownSymbol",
    "WeightedItem",
    "WeightedSequence",
    "brute_force_best",
    "brute_force_partition",
    "build_sequence",
    "compress_runs",
    "density",
    "make_segment",
    "map_to_sequence",
    "max_density_general",
    "max_density_min_width",
    "max_density_uniform",
    "parse_fasta",
    "parse_tsv",
    "sliding_window",
    "solve",
]
