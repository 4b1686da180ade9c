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

One kernel hashes every cell.  A reader lays its rows back to back, and
the kernel hashes that layout in pieces of at most CHUNK_CELLS cells (as
many whole rows as fit, or a slice of one longer row), each computed in
place in buffers that every piece reuses, so the temporaries stay in cache
however long or short the rows are and a law is applied once per piece.
The readers reduce what they can while hashing: offspring are counted
straight from the hashed words, so neither their units nor their counts
are built, and a constant law needs no hashing at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

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

#: cells hashed in one piece, in two buffers of this many words that stay
#: in cache and that every piece reuses
CHUNK_CELLS = 1 << 14
#: golden multiples of the positions 1..CHUNK_CELLS, the most a piece holds
#: (so CHUNK_CELLS may be lowered, as the tests do, but not raised alone)
_GOLDEN_K = np.arange(1, CHUNK_CELLS + 1, dtype=np.uint64) * _U64_GOLDEN


def _mix(z: int) -> int:
    """Scalar 64-bit finalizer with full avalanche."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & _MASK64
    return z ^ (z >> 31)


def _mix_in_place(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``_mix`` of every word of ``z``, in place; ``tmp`` is scratch of the
    same shape.  uint64 arithmetic wraps silently in numpy."""
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
_SPARE_BUFFERS: list[tuple[np.ndarray, np.ndarray]] = []


def _word_chunks(
    keys: np.ndarray, counts: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Mixed words of the cells k = 1..counts[i] of every row key keys[i],
    with the rows laid back to back, piece by piece.

    A piece holds at most CHUNK_CELLS cells: as many whole rows as fit, or
    a slice of one row that alone is longer.  Yields ``(start, first,
    cells, words, spare)``: ``words[j]`` is the word of cell ``start + j``
    of the layout, the piece holds ``cells[i]`` cells of row ``first + i``,
    and ``spare`` is scratch of the size of ``words``.  Both live in
    buffers that the next piece overwrites.
    """
    m = len(keys)
    ends = counts.cumsum()
    if not m or not ends[-1]:
        return
    starts = ends - counts
    size = CHUNK_CELLS
    try:
        buffers = _SPARE_BUFFERS.pop()
    except IndexError:  # every spare is in use, by another thread or an unfinished pass
        buffers = ()
    if not buffers or buffers[0].size < min(size, int(ends[-1])):
        buffers = (np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64))
    a = 0
    try:
        while a < m:
            start = int(starts[a])
            b = int(ends.searchsorted(start + size, side="right"))
            if b == a:  # row a alone is longer than a piece: slice it
                count = int(counts[a])
                for k0 in range(0, count, size):
                    n = min(size, count - k0)
                    words, spare = buffers[0][:n], buffers[1][:n]
                    np.add(_GOLDEN_K[:n], np.uint64((k0 * _GOLDEN) & _MASK64), out=words)
                    np.bitwise_xor(words, keys[a], out=words)
                    yield start + k0, a, np.array([n]), _mix_in_place(words, spare), spare
                a += 1
                continue
            cells = counts[a:b]
            n = int(ends[b - 1]) - start
            words, spare = buffers[0][:n], buffers[1][:n]
            count = int(cells[0])
            if (cells == count).all():
                np.bitwise_xor(_GOLDEN_K[:count], keys[a:b, None], out=words.reshape(b - a, count))
            else:
                # position k of a row that starts at cell o of the piece is
                # its cell o + k - 1, so k * G = (o + k) * G - o * G
                offsets = (starts[a:b] - start).astype(np.uint64) * _U64_GOLDEN
                np.subtract(_GOLDEN_K[:n], np.repeat(offsets, cells), out=words)
                np.bitwise_xor(words, np.repeat(keys[a:b], cells), out=words)
            if n:
                yield start, a, cells, _mix_in_place(words, spare), spare
            a = b
    finally:
        _SPARE_BUFFERS.append(buffers)


def _units(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The unit in (0, 1] of every mixed word, into ``out``: its top 53 bits,
    centred in their interval of width 2**-53.  ``words`` is overwritten."""
    np.right_shift(words, _SH11, out=words)
    # below 2**53 the signed cast is exact too, and it is the faster one
    np.copyto(out, words.view(np.int64), casting="unsafe")
    out += 0.5
    out *= _INV_2_53
    return out


def _row_runs(counts: np.ndarray, groups: Optional[np.ndarray] = None) -> list[tuple[int, int, int, int]]:
    """``(lo, hi, start, count)`` for each longest run of rows lo..hi-1 of
    equal counts (and, if given, equal ``groups``), whose cells are laid
    back to back from cell ``start``: the run is the C-contiguous block
    ``cells[start:start + (hi - lo) * count].reshape(hi - lo, count)``."""
    if not len(counts):
        return []
    change = counts[1:] != counts[:-1]
    if groups is not None:
        change |= groups[1:] != groups[:-1]
    edges = [0, *(change.nonzero()[0] + 1).tolist(), len(counts)]
    runs = []
    start = 0
    for lo, hi, count in zip(edges, edges[1:], counts[edges[:-1]].tolist()):
        runs.append((lo, hi, start, count))
        start += (hi - lo) * count
    return runs


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


def _row_keys(base: Universe, tag: int, ids: np.ndarray, n: int) -> np.ndarray:
    """Row keys of generation n of many replicate ids, hashed with the seed
    and the tag of one array."""
    h = _mix(base.seed.value + _GOLDEN * tag)
    if len(ids) == 1:
        # one replicate (``Universe.generation``, or the last live id of a
        # check): two scalar mixes take a tenth of the time of the twenty
        # numpy calls below
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
    """Generation n of many replicates of one universe, read row by row.

    Every reader takes ``rows`` (positions in ``ids``) and ``counts``, one
    per row or one for all, and reads cells k = 1..counts[i] of replicate
    ``ids[rows[i]]``, so a replicate reads the same values alone or among
    others.  The rows are laid back to back and hashed piece by piece in
    the kernel's buffers, and a law is applied once per piece.  Offspring
    are counted straight from the hashed words and summed per row across
    pieces; claims, aux deviates and resources fill one flat array, in
    which each run of rows of one count is a C-contiguous block, so
    ``block.sum(axis=1)`` adds every row with the same pairwise tree as
    ``np.sum`` of that row alone.  With one count for all rows, claims and
    aux deviates come as that ``(len(rows), count)`` block.
    """

    def __init__(self, base: Universe, ids: np.ndarray, n: int):
        if not 0 <= n <= INDEX_CAP:
            raise ValueError(f"generation index {n} outside [0, {INDEX_CAP}]")
        self._base = base
        self._ids = ids
        self._n = n
        self._keys: dict[int, np.ndarray] = {}

    def _chunks(self, tag: int, rows: np.ndarray, counts: np.ndarray):
        keys = self._keys.get(tag)
        if keys is None:
            keys = self._keys[tag] = _row_keys(self._base, tag, self._ids, self._n)
        return _word_chunks(keys[rows], counts)

    def _fill(self, tag: int, rows: np.ndarray, counts, law=None) -> np.ndarray:
        """The cells of the rows back to back, as units or as ``law.icdf``
        of them; the ``(len(rows), count)`` block for one count.  ``icdf``
        acts element by element, so applying it piece by piece changes no
        bit; a constant law needs no units at all."""
        flat = _as_counts(rows, counts)
        cells = np.empty(int(flat.sum()), dtype=np.float64)
        if isinstance(law, Constant):
            cells.fill(law.value)
        else:
            for start, _, _, words, spare in self._chunks(tag, rows, flat):
                stop = start + len(words)
                if law is None:
                    _units(words, cells[start:stop])
                else:
                    cells[start:stop] = law.icdf(_units(words, spare.view(np.float64)))
        return cells.reshape(len(rows), int(counts)) if np.ndim(counts) == 0 else cells

    def offspring_totals(self, rows: np.ndarray, counts) -> np.ndarray:
        """Offspring of members 1..counts[i] summed per row; the counts
        themselves are never built."""
        counts = _as_counts(rows, counts)
        totals = np.zeros(len(rows), dtype=np.int64)
        if not counts.all():  # a row of no members has no offspring
            live = np.flatnonzero(counts)
            totals[live] = self.offspring_totals(rows[live], counts[live])
            return totals
        law = self._base.laws.offspring
        for _, first, cells, words, _ in self._chunks(_TAG_OFFSPRING, rows, counts):
            totals[first:first + len(cells)] += law.word_totals(words, cells)
        return totals

    def budgets(self, rows: np.ndarray, counts) -> np.ndarray:
        """Resources of members 1..counts[i] summed per row, with ``np.sum``'s
        pairwise tree."""
        counts = _as_counts(rows, counts)
        law = self._base.laws.resource
        if isinstance(law, Constant):
            # every row of one count is the same constant row: sum one per
            # count, a prefix of the longest, with the same tree
            distinct, which = np.unique(counts, return_inverse=True)
            row = np.full(int(distinct[-1]) if distinct.size else 0, law.value, dtype=np.float64)
            return np.array([row[:count].sum() for count in distinct.tolist()], dtype=np.float64)[which]
        cells = self._fill(_TAG_RESOURCE, rows, counts, law)
        budgets = np.empty(len(rows), dtype=np.float64)
        for lo, hi, start, count in _row_runs(counts):
            budgets[lo:hi] = cells[start:start + (hi - lo) * count].reshape(hi - lo, count).sum(axis=1)
        return budgets

    def claims(self, rows: np.ndarray, counts) -> np.ndarray:
        return self._fill(_TAG_CLAIM, rows, counts, self._base.laws.claim)

    def aux(self, rows: np.ndarray, counts) -> np.ndarray:
        """Claim-independent uniforms, used by randomising policies."""
        return self._fill(_TAG_AUX, rows, counts)


def _as_counts(rows: np.ndarray, counts) -> np.ndarray:
    """One count per row, refused before anything is allocated unless every
    position it reads has an address."""
    flat = np.asarray(counts, dtype=np.int64)
    if not flat.ndim:  # one count for all rows, as a view that takes no memory
        flat = np.broadcast_to(flat, (len(rows),))
    # a negative count, read as unsigned, lies above the cap too
    if flat.size and flat.view(np.uint64).max() > INDEX_CAP:
        raise ValueError(f"positions [1, {flat.max()}] outside [1, {INDEX_CAP}]")
    return flat
