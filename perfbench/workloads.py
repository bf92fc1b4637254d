"""Seeded input generators for the three benchmark workloads.

Each generator turns ``(seed, scale)`` into the exact input the program is
given (FASTA text, TSV text or an item list) plus the integer arrays the
independent reference solves.  The same seed always gives the same input;
``scale`` shrinks the instance for the benchmark's own tests and is 1.0 in
every measured run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

# Reserved for confirming a later performance claim; never use it while a
# change is being written or tuned.
HELD_OUT_SEED = 20021

# Generator parameters, one dict per workload.  They are the workload
# definitions: changing one defines a different benchmark.
FASTA_GC = {
    "records": 4,
    "bases_per_record": 250_000,
    "line_width": 60,
    "background_gc": 0.4,
    "planted_len": 150,
    "planted_gc": 0.95,
    "n_runs_per_record": (1, 3),
    "L": 100,
    "U": 200,
}
SOLVE_C08 = {"items": 1_000_000, "value_range": (0, 9), "L": 100, "U": 5000}
TSV_WEIGHTED = {
    "rows": 150_000,
    "value_hundredths": (-900, 900),
    "weight_tenths": (10, 30),
    "heavy_rate": 0.001,
    "heavy_weight_tenths": (11_010, 20_000),
    "L": 100,
    "U": 1100,
}


@dataclass
class Instance:
    """One generated input.

    ``records`` holds, per record the program reports on, its id and the
    integer (values, weights, L, U) the reference solves, in the units the
    reference uses; ``value_scale`` and ``weight_scale`` turn those integers
    back into the user units the CLI prints.  ``planted`` gives, for FASTA
    records, the 1-based inclusive GC-rich region the generator planted.
    """

    workload: str
    seed: int
    items: int
    text: Optional[str]
    item_list: Optional[List[Tuple[int, int]]]
    records: List[Tuple[str, np.ndarray, np.ndarray, int, int]]
    value_scale: int
    weight_scale: int
    planted: Optional[List[Tuple[int, int]]] = None


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


def _synthetic_genome(rng: random.Random, n: int, planted_at: int, planted_len: int,
                      background_gc: float, planted_gc: float) -> List[str]:
    """The C09 acceptance generator: GC-rich inside the planted window."""
    chars = []
    for pos in range(n):
        inside = planted_at <= pos < planted_at + planted_len
        p_gc = planted_gc if inside else background_gc
        pool = "GC" if rng.random() < p_gc else "AT"
        chars.append(pool[rng.randrange(2)])
    return chars


def fasta_gc(seed: int, scale: float = 1.0) -> Instance:
    p = FASTA_GC
    rng = random.Random(seed)
    n = _scaled(p["bases_per_record"], scale, 4 * p["planted_len"])
    plen = p["planted_len"]
    lines = []
    records = []
    planted = []
    for r in range(p["records"]):
        planted_at = rng.randrange(0, n - plen)
        chars = _synthetic_genome(rng, n, planted_at, plen,
                                  p["background_gc"], p["planted_gc"])
        # A few short runs of N, kept outside the planted window.
        for _ in range(rng.randint(*p["n_runs_per_record"])):
            run = rng.randint(1, 5)
            at = rng.randrange(0, n - run)
            if at + run > planted_at and at < planted_at + plen:
                continue
            chars[at:at + run] = "N" * run
        bases = "".join(chars)
        rid = f"chr{r + 1} synthetic seed={seed}"  # the CLI reports the whole header
        lines.append(f">{rid}")
        width = p["line_width"]
        lines.extend(bases[i:i + width] for i in range(0, n, width))
        raw = np.frombuffer(bases.encode("ascii"), dtype=np.uint8)
        values = np.isin(raw, np.frombuffer(b"GCgc", dtype=np.uint8)).astype(np.int64)
        records.append((rid, values, np.ones(n, dtype=np.int64), p["L"], p["U"]))
        planted.append((planted_at + 1, planted_at + plen))
    return Instance("fasta-gc", seed, n * p["records"], "\n".join(lines) + "\n", None,
                    records, 1, 1, planted)


def solve_c08(seed: int, scale: float = 1.0) -> Instance:
    """The C08 instance: unit weights, values randint(0, 9)."""
    p = SOLVE_C08
    rng = random.Random(seed)
    n = _scaled(p["items"], scale, 2 * p["L"])
    lo, hi = p["value_range"]
    items = [(rng.randint(lo, hi), 1) for _ in range(n)]
    values = np.fromiter((v for v, _ in items), dtype=np.int64, count=n)
    records = [("c08", values, np.ones(n, dtype=np.int64), p["L"], p["U"])]
    return Instance("solve-c08", seed, n, None, items, records, 1, 1)


def _decimal_text(units: int, places: int) -> str:
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"


def tsv_weighted(seed: int, scale: float = 1.0, heavy_rate: Optional[float] = None) -> Instance:
    """Decimal (value, weight) rows; a small share of rows is wider than U."""
    p = TSV_WEIGHTED
    rng = random.Random(seed)
    n = _scaled(p["rows"], scale, 200)
    rate = p["heavy_rate"] if heavy_rate is None else heavy_rate
    vlo, vhi = p["value_hundredths"]
    wlo, whi = p["weight_tenths"]
    hlo, hhi = p["heavy_weight_tenths"]
    values = np.empty(n, dtype=np.int64)
    weights = np.empty(n, dtype=np.int64)
    lines = ["# value\tweight"]
    for k in range(n):
        v = rng.randint(vlo, vhi)
        w = rng.randint(hlo, hhi) if rng.random() < rate else rng.randint(wlo, whi)
        values[k] = v
        weights[k] = w
        lines.append(f"{_decimal_text(v, 2)}\t{_decimal_text(w, 1)}")
    # Width bounds are whole numbers, so the weight grid (tenths) fixes their units.
    records = [("r1", values, weights, p["L"] * 10, p["U"] * 10)]
    return Instance("tsv-weighted", seed, n, "\n".join(lines) + "\n", None,
                    records, 100, 10)


GENERATORS = {
    "fasta-gc": fasta_gc,
    "solve-c08": solve_c08,
    "tsv-weighted": tsv_weighted,
}
