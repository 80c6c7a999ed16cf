"""Training data: logic gates, the 2-bit adder, step patterns, bundled machines.

A dataset is a weighted list of visible configurations; the weights are the
target probabilities the generative trainer tries to match. Datasets used for
function approximation additionally carry an (input, output) split of the
visible bits.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .errors import DatasetFormatError
from .model import (
    Basis,
    BoltzmannMachine,
    _basis_of,
    _check_probabilities,
    _read_json,
    _replacing,
    _row_indices,
    model_from_dict,
)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Distinct visible rows, states of one basis, with positive weights
    summing to one. Datasets compare by identity: their fields hold arrays."""

    rows: np.ndarray                     # (D, m) of 0/1 or of -1/+1
    weights: np.ndarray                  # (D,), > 0, sums to 1
    io_split: tuple[int, int] | None = None
    # every row as an int tuple, its lexicographic index (``model._row_indices``)
    # and the rows' basis, built once: `rows` is a read-only copy
    _row_tuples: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    _indices: np.ndarray = field(init=False, repr=False)
    _basis: Basis = field(init=False, repr=False)

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.int8)  # a copy: freezing it leaves the caller's array alone
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D array")
        weights = np.array(self.weights, dtype=np.float64).reshape(-1)
        if weights.shape[0] != rows.shape[0]:
            raise ValueError("one weight per row required")
        _check_probabilities(weights, "weights", positive=True)
        basis = _basis_of(rows)
        row_tuples = tuple(map(tuple, rows.tolist()))
        if len(set(row_tuples)) != rows.shape[0]:
            raise ValueError("rows must be distinct")
        if self.io_split is not None:
            m_i, m_o = self.io_split
            if m_i < 0 or m_o < 0 or m_i + m_o != rows.shape[1]:
                raise ValueError("io_split must partition the row width")
        indices = _row_indices(rows)
        for x in (rows, weights, indices):
            x.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_row_tuples", row_tuples)
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_basis", basis)

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def num_bits(self) -> int:
        return self.rows.shape[1]

    def row(self, d: int) -> tuple[int, ...]:
        return self._row_tuples[d]

    def input_part(self, d: int) -> tuple[int, ...]:
        if self.io_split is None:
            raise ValueError("dataset has no input/output split")
        return self._row_tuples[d][: self.io_split[0]]

    def output_part(self, d: int) -> tuple[int, ...]:
        if self.io_split is None:
            raise ValueError("dataset has no input/output split")
        return self._row_tuples[d][self.io_split[0]:]


def from_rows(
    rows: Iterable[Sequence[int]],
    weights: Sequence[float] | None = None,
    io_split: tuple[int, int] | None = None,
) -> Dataset:
    """Build a dataset, defaulting to uniform weights."""
    rows = np.asarray(list(rows), dtype=np.int8)
    if weights is None:
        weights = np.full(rows.shape[0], 1.0 / rows.shape[0])
    else:
        weights = np.asarray(weights, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):  # Dataset refuses what cannot be normalised
            weights = weights / weights.sum()
    return Dataset(rows=rows, weights=weights, io_split=io_split)


GATE_FUNCTIONS = {
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
}


def logic_gate(kind: str) -> Dataset:
    """Truth table of a 2-input gate as four equally likely (in, in, out) rows."""
    fn = GATE_FUNCTIONS.get(kind.upper())
    if fn is None:
        raise ValueError(f"unknown gate {kind!r}; expected one of {sorted(GATE_FUNCTIONS)}")
    rows = [(a, b, fn(a, b)) for a in (0, 1) for b in (0, 1)]
    return from_rows(rows, io_split=(2, 1))


def adder2() -> Dataset:
    """2-bit adder truth table: (A1, A0, B1, B0) -> (C2, C1, C0), 16 rows."""
    rows = []
    for a in range(4):
        for b in range(4):
            c = a + b
            rows.append((a >> 1, a & 1, b >> 1, b & 1, (c >> 2) & 1, (c >> 1) & 1, c & 1))
    return from_rows(rows, io_split=(4, 3))


def two_phase(n: int = 10) -> Dataset:
    """All n-site patterns 0^k 1^(n-k): a left phase of zeros, a right phase of
    ones, and at most one boundary. The n+1 patterns are equally likely."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = [[0] * k + [1] * (n - k) for k in range(n, -1, -1)]
    return from_rows(rows)


# -- CSV files ----------------------------------------------------------------
#
# Format: an optional metadata comment line "# io_split=<m_i>,<m_o>", then a
# header "bit_0,...,bit_{m-1},weight". The weight column may be omitted, in
# which case rows are uniformly weighted.


def save_dataset(ds: Dataset, path: str | os.PathLike) -> None:
    with _replacing(path) as fh:
        if ds.io_split is not None:
            fh.write(f"# io_split={ds.io_split[0]},{ds.io_split[1]}\n")
        writer = csv.writer(fh)
        writer.writerow([f"bit_{i}" for i in range(ds.num_bits)] + ["weight"])
        for d in range(ds.num_rows):
            writer.writerow([*ds.row(d), repr(float(ds.weights[d]))])


def load_dataset(path: str | os.PathLike) -> Dataset:
    with open(path) as fh:
        return _parse_dataset(fh.read())


def _parse_dataset(text: str) -> Dataset:
    io_split = None
    lines = text.splitlines()
    line_no = 0
    if lines and lines[0].startswith("#"):
        line_no = 1
        meta = lines[0].lstrip("# ").strip()
        if not meta.startswith("io_split="):
            raise DatasetFormatError(f"unrecognized metadata {meta!r}", line=1)
        try:
            m_i, m_o = (int(x) for x in meta.removeprefix("io_split=").split(","))
        except ValueError as exc:
            raise DatasetFormatError(f"bad io_split: {exc}", line=1) from exc
        io_split = (m_i, m_o)
        lines = lines[1:]

    reader = csv.reader(io.StringIO("\n".join(lines)))
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError("empty dataset file", line=line_no + 1) from None
    has_weight = header and header[-1].strip() == "weight"
    num_bits = len(header) - (1 if has_weight else 0)
    expected = [f"bit_{i}" for i in range(num_bits)]
    if [h.strip() for h in header[:num_bits]] != expected:
        raise DatasetFormatError(f"expected columns {expected}", line=line_no + 1)

    rows, weights = [], []
    for offset, rec in enumerate(reader):
        ln = line_no + 2 + offset
        if not rec:
            continue
        if len(rec) != len(header):
            raise DatasetFormatError(f"expected {len(header)} fields, got {len(rec)}", line=ln)
        try:
            bits = [int(x) for x in rec[:num_bits]]
        except ValueError as exc:
            raise DatasetFormatError(f"bad bit value: {exc}", line=ln) from exc
        if any(b not in (0, 1) for b in bits):
            raise DatasetFormatError(f"bits must be 0/1, got {bits}", line=ln)
        rows.append(bits)
        if has_weight:
            try:
                w = float(rec[-1])
            except ValueError as exc:
                raise DatasetFormatError(f"bad weight: {exc}", line=ln) from exc
            if not (math.isfinite(w) and w > 0):
                raise DatasetFormatError(f"weight must be finite and positive, got {w}", line=ln)
            weights.append(w)

    if not rows:
        raise DatasetFormatError("dataset has no rows", line=line_no + 2)
    try:
        return from_rows(rows, weights if has_weight else None, io_split)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from exc


# A whole name, in any case, is a built-in: a gate, adder2, or two_phase with an optional size N.
_BUILTIN_NAME = re.compile(r"(and|or|xor|adder2)|two_phase(?:_([0-9]+))?", re.IGNORECASE)


def builtin_dataset(name: str) -> Dataset:
    """Resolve a generator by name ('two_phase' may carry a size suffix, 'two_phase_N')."""
    match = _BUILTIN_NAME.fullmatch(name)
    if match is None:
        raise ValueError(f"unknown dataset {name!r}; built-ins: and, or, xor, adder2, two_phase, two_phase_N")
    gate, size = match.groups()
    if gate is None:
        return two_phase(int(size or 10))
    return adder2() if gate.lower() == "adder2" else logic_gate(gate)


# -- bundled machines ---------------------------------------------------------

FIXTURE_NAMES = (
    "xor_ground_state",
    "xor_trained",
    "and_gate",
    "two_phase_trained",
    "adder_function",
    "adder_distribution",
)


def _fixture_resource(name: str):
    return resources.files("isingbm").joinpath("data", "fixtures", f"{name}.json")


def load_fixture(name: str) -> BoltzmannMachine:
    """Load a bundled reference machine by name; bounds are not enforced."""
    return load_fixture_entry(name)[0]


def load_fixture_entry(name: str) -> tuple[BoltzmannMachine, dict]:
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    return model_from_dict(_read_json(_fixture_resource(name).read_text(), "a model document"))
