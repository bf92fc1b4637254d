"""Maximum-density segment search on weighted sequences with width bounds.

The library finds, for a sequence of (value, weight) items and width bounds
L <= U, a consecutive run whose value sum divided by weight sum is maximal
among runs of width within [L, U].  Decimal inputs are scaled onto integer
grids so every density comparison is exact.

The public names resolve on first use (PEP 562): ``import maxseg`` loads
no submodule, and the first read of a name imports only the submodule that
defines it and what that one imports.  So ``python -m maxseg find`` does
not load the oracle, which only the ``verify`` command and tests use.
"""

import importlib

# The submodule that defines each public name.
_HOMES = {
    "bio": "DnaRecord MappingSpec compress_runs map_to_sequence parse_fasta parse_tsv",
    "core": "DensityValue OpCounters Segment WeightedItem WeightedSequence build_sequence"
            " density make_segment",
    "errors": "CapExceeded EmptySequence IndexOutOfRange InfeasibleWidthWindow MalformedFasta"
              " MalformedTsv MaxsegError NonPositiveWeight NonUniformInput UnknownSymbol",
    "oracle": "brute_force_best brute_force_partition",
    "solvers": "SolveRequest max_density_general max_density_min_width max_density_uniform"
               " sliding_window solve",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
