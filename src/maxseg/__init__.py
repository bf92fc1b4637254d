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
    write_fasta,
)
from .core import (
    DensityValue,
    FeasibilityBounds,
    OpCounters,
    Segment,
    WeightedItem,
    WeightedSequence,
    build_sequence,
    compute_bounds,
    density,
    make_segment,
)
from .errors import (
    CapExceeded,
    EmptySequence,
    IndexOutOfRange,
    InfeasibleQuery,
    InfeasibleWidthWindow,
    MalformedFasta,
    MalformedTsv,
    MaxsegError,
    NonPositiveWeight,
    NonUniformInput,
    QueryOrderViolation,
    RangeViolation,
    UnknownSymbol,
)
from .oracle import brute_force_best, brute_force_partition
from .solvers import (
    BlockId,
    SolveRequest,
    collect_blocks,
    max_density_general,
    max_density_min_width,
    max_density_uniform,
    sliding_window,
    solve,
)
from .sweep_left import MinWidthSweepState, find_match_min_width, initialize_min_width
from .sweep_right import MaxWidthSweepState, find_match_max_width, initialize_max_width

__version__ = "0.1.0"

__all__ = [
    "BlockId",
    "CapExceeded",
    "DensityValue",
    "DnaRecord",
    "EmptySequence",
    "FeasibilityBounds",
    "IndexOutOfRange",
    "InfeasibleQuery",
    "InfeasibleWidthWindow",
    "MalformedFasta",
    "MalformedTsv",
    "MappingSpec",
    "MaxWidthSweepState",
    "MaxsegError",
    "MinWidthSweepState",
    "NonPositiveWeight",
    "NonUniformInput",
    "OpCounters",
    "QueryOrderViolation",
    "RangeViolation",
    "Segment",
    "SolveRequest",
    "UnknownSymbol",
    "WeightedItem",
    "WeightedSequence",
    "brute_force_best",
    "brute_force_partition",
    "build_sequence",
    "collect_blocks",
    "compress_runs",
    "compute_bounds",
    "density",
    "find_match_max_width",
    "find_match_min_width",
    "initialize_max_width",
    "initialize_min_width",
    "make_segment",
    "map_to_sequence",
    "max_density_general",
    "max_density_min_width",
    "max_density_uniform",
    "parse_fasta",
    "parse_tsv",
    "sliding_window",
    "solve",
    "write_fasta",
]
