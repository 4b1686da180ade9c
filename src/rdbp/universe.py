"""Addressed randomness: every sample has a coordinate, none are streamed.

A universe is a virtual table of offspring counts, claims, resources, and
auxiliary deviates, indexed by (array, generation n, position k).  Each cell
is a pure hash of (seed, replicate_id, array, n, k), so reads are order
independent and re-reads always agree.  Two processes simulated against the
same universe automatically see the same arrays cell for cell, which is what
makes coupled policy comparisons exact rather than merely distributional.

Cell words come from a keyed 64-bit finalizer chain (SplitMix64 style
avalanche), with n and k each limited to 32 bits.  Statistical quality is
enforced by fixed-seed chi-square and Kolmogorov-Smirnov checks in the test
suite.

One kernel hashes every block of cells.  A block of more than CHUNK_CELLS
cells is hashed in pieces of at most that many, each computed in place in
buffers that every piece reuses, so the temporaries stay in cache however
long the rows are; a smaller block takes one pass.  The readers built on it
reduce what they can while hashing: offspring rows are only ever summed, so
their counts are never built, and a constant law needs no hashing at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .distributions import Constant, LawTriple

__all__ = ["Seed", "Universe", "ReplicateRows", "INDEX_CAP"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB

#: n and k must each fit in 32 bits so an address packs into one word
INDEX_CAP = (1 << 32) - 1

_TAG_OFFSPRING = 1
_TAG_CLAIM = 2
_TAG_RESOURCE = 3
_TAG_AUX = 4

_U64_GOLDEN = np.uint64(_GOLDEN)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_NP_M1 = np.uint64(_MIX_M1)
_NP_M2 = np.uint64(_MIX_M2)
_INV_2_53 = 2.0 ** -53

#: cells hashed in one piece; a larger block is hashed in place, in pieces,
#: in three buffers of this many words that stay in cache
CHUNK_CELLS = 1 << 14


def _mix(z: int) -> int:
    """Scalar 64-bit finalizer with full avalanche."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """``_mix`` of every word of ``z``, into new arrays; uint64 arithmetic
    wraps silently in numpy."""
    z = (z ^ (z >> _SH30)) * _NP_M1
    z = (z ^ (z >> _SH27)) * _NP_M2
    return z ^ (z >> _SH31)


def _mix_in_place(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``_mix_array`` in place; ``tmp`` is scratch of the same shape."""
    for shift, mult in ((_SH30, _NP_M1), (_SH27, _NP_M2)):
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, _SH31, out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


#: kernel buffers no pass is using.  They only ever hold scratch, and they
#: live as long as the process: fresh ones are returned to the system after
#: every pass and page-faulted back in by the next, which more than doubled
#: the cost of hashing a row of 16385 to 30000 cells
_SPARE_BUFFERS: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []


def _unit_chunks(keys: np.ndarray, count: int) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Units of the cells k = 1..count of every row key, piece by piece.

    Yields ``(rows, cols, u)``: ``u[i, j]`` is the unit in (0, 1] of row key
    ``keys[rows][i]`` at position ``cols.start + j + 1``.  A block of at most
    CHUNK_CELLS cells is one piece; a larger one is cut into runs of whole
    rows, or into pieces of one row when a row alone is larger, and ``u``
    lives in buffers that the next piece overwrites.
    """
    m = len(keys)
    if not m or not count:
        return
    if m * count <= CHUNK_CELLS:
        # one pass in new arrays: on small blocks, where each numpy call
        # costs more than its cells, this beats the in-place pieces below
        golden_k = np.arange(1, count + 1, dtype=np.uint64) * _U64_GOLDEN
        words = _mix_array(golden_k ^ keys[:, None]) >> _SH11
        yield slice(0, m), slice(0, count), (words.astype(np.float64) + 0.5) * _INV_2_53
        return
    width = min(count, CHUNK_CELLS)
    height = min(m, CHUNK_CELLS // width)
    try:
        buffers = _SPARE_BUFFERS.pop()
    except IndexError:  # every spare is in use, by another thread or an unfinished pass
        buffers = ()
    if not buffers or buffers[0].size < height * width:
        buffers = (np.empty(CHUNK_CELLS, dtype=np.uint64), np.empty(CHUNK_CELLS, dtype=np.uint64),
                   np.empty(CHUNK_CELLS, dtype=np.float64))
    words, tmp, units = (buf[: height * width].reshape(height, width) for buf in buffers)
    # golden multiples of the positions in the current run of columns
    golden_k = np.arange(1, width + 1, dtype=np.uint64)
    golden_k *= _U64_GOLDEN
    next_cols = np.uint64((width * _GOLDEN) & _MASK64)
    try:
        for c0 in range(0, count, width):
            if c0:
                golden_k += next_cols
            c1 = min(count, c0 + width)
            for r0 in range(0, m, height):
                r1 = min(m, r0 + height)
                piece = (slice(0, r1 - r0), slice(0, c1 - c0))
                w, t, u = words[piece], tmp[piece], units[piece]
                np.bitwise_xor(golden_k[: c1 - c0], keys[r0:r1, None], out=w)
                _mix_in_place(w, t)
                # the top 53 bits, centred in their interval of width 2**-53
                np.right_shift(w, _SH11, out=w)
                u[...] = w
                u += 0.5
                u *= _INV_2_53
                yield slice(r0, r1), slice(c0, c1), u
    finally:
        _SPARE_BUFFERS.append(buffers)


@dataclass(frozen=True)
class Seed:
    """64-bit unsigned master seed."""

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or not 0 <= self.value <= _MASK64:
            raise ValueError("seed must be an integer in [0, 2**64)")

    @classmethod
    def parse(cls, text: str) -> "Seed":
        """Accepts a decimal string or a 0x-prefixed hex string."""
        text = text.strip()
        try:
            value = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
        except ValueError as exc:
            raise ValueError(f"cannot parse seed {text!r}: use decimal or 0x-hex") from exc
        return cls(value)


@dataclass(frozen=True)
class Universe:
    """One realisation of all random inputs for a single replicate.

    ``generation(n)`` reads generation n of this replicate; ``claim_row``
    fetches the claims at k = 1..count.
    """

    seed: Seed
    laws: LawTriple
    replicate_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.replicate_id, int) or self.replicate_id < 0:
            raise ValueError("replicate_id must be a non-negative integer")

    def derive_replicate(self, replicate_id: int) -> "Universe":
        """Same seed and laws, an independent replicate stream."""
        return replace(self, replicate_id=replicate_id)

    def generation(self, n: int) -> "ReplicateRows":
        """Generation n of this replicate, as the only row of a ReplicateRows."""
        return ReplicateRows(self, np.array([self.replicate_id]), n)

    def claim_row(self, n: int, count: int) -> np.ndarray:
        """Claims of the first ``count`` prospective children of generation n."""
        return self.generation(n).claims(_FIRST_ROW, count)[0]


_FIRST_ROW = np.zeros(1, dtype=np.intp)


def _check_positions(count: int) -> None:
    if not 0 <= count <= INDEX_CAP:
        raise ValueError(f"positions [1, {count}] outside [1, {INDEX_CAP}]")


def _row_keys(base: Universe, tag: int, ids: np.ndarray, n: int) -> np.ndarray:
    """Row keys of generation n of many replicate ids, hashed with the seed
    and the tag of one array."""
    h = _mix(base.seed.value + _GOLDEN * tag)
    if len(ids) == 1:
        # one replicate, as ``step`` reads it: two scalar mixes take a tenth
        # of the time of the twenty numpy calls below
        return np.array([_mix(_mix(h + _GOLDEN * (int(ids[0]) + 1)) + _GOLDEN * n)], dtype=np.uint64)
    z = np.asarray(ids, dtype=np.uint64) + np.uint64(1)
    tmp = np.empty_like(z)
    z *= _U64_GOLDEN
    z += np.uint64(h)
    _mix_in_place(z, tmp)
    # scalar uint64 products go through Python ints: numpy warns on scalar
    # wraparound even though wrapping is exactly what we want
    z += np.uint64((n * _GOLDEN) & _MASK64)
    return _mix_in_place(z, tmp)


class ReplicateRows:
    """Generation n of many replicates of one universe, read as 2-D blocks.

    Row i of every block belongs to replicate ``ids[rows[i]]`` and holds its
    cells k = 1..count, whatever else the block holds, so a replicate reads
    the same values alone or among others.  Claim, aux and resource blocks
    are C-contiguous, so ``block.sum(axis=1)`` adds every row with the same
    pairwise tree as ``np.sum`` of that row alone.
    """

    def __init__(self, base: Universe, ids: np.ndarray, n: int):
        if not 0 <= n <= INDEX_CAP:
            raise ValueError(f"generation index {n} outside [0, {INDEX_CAP}]")
        self._base = base
        self._ids = ids
        self._n = n
        self._keys: dict[int, np.ndarray] = {}

    def _chunks(self, tag: int, rows: np.ndarray, count: int) -> Iterator[tuple[slice, slice, np.ndarray]]:
        _check_positions(count)
        keys = self._keys.get(tag)
        if keys is None:
            keys = self._keys[tag] = _row_keys(self._base, tag, self._ids, self._n)
        return _unit_chunks(keys[rows], count)

    def _fill(self, tag: int, rows: np.ndarray, count: int, law=None) -> np.ndarray:
        """The ``(len(rows), count)`` block of units, or of ``law.icdf`` of
        them.  ``icdf`` acts element by element, so applying it piece by
        piece changes no bit; a constant law needs no units at all."""
        if isinstance(law, Constant):
            _check_positions(count)
            return np.full((len(rows), count), law.value, dtype=np.float64)
        chunks = self._chunks(tag, rows, count)
        block = np.empty((len(rows), count), dtype=np.float64)
        for r, c, u in chunks:
            block[r, c] = u if law is None else law.icdf(u)
        return block

    def offspring_totals(self, rows: np.ndarray, count: int) -> np.ndarray:
        """Offspring of members 1..count summed per row; the counts
        themselves are never built."""
        law = self._base.laws.offspring
        totals = np.zeros(len(rows), dtype=np.int64)
        for r, _, u in self._chunks(_TAG_OFFSPRING, rows, count):
            totals[r] += law.row_totals(u)
        return totals

    def budgets(self, rows: np.ndarray, count: int) -> np.ndarray:
        """Resources of members 1..count summed per row, with ``np.sum``'s
        pairwise tree."""
        law = self._base.laws.resource
        if isinstance(law, Constant):
            _check_positions(count)
            # every row is the same constant row: sum one, with the same tree
            return np.full(len(rows), np.full(count, law.value, dtype=np.float64).sum())
        return self._fill(_TAG_RESOURCE, rows, count, law).sum(axis=1)

    def claims(self, rows: np.ndarray, count: int) -> np.ndarray:
        return self._fill(_TAG_CLAIM, rows, count, self._base.laws.claim)

    def aux(self, rows: np.ndarray, count: int) -> np.ndarray:
        """Claim-independent uniforms, used by randomising policies."""
        return self._fill(_TAG_AUX, rows, count)
