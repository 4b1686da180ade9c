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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .distributions import LawTriple

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


def _mix(z: int) -> int:
    """Scalar 64-bit finalizer with full avalanche."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """Vectorised copy of _mix; uint64 arithmetic wraps silently in numpy."""
    z = (z ^ (z >> _SH30)) * _NP_M1
    z = (z ^ (z >> _SH27)) * _NP_M2
    return z ^ (z >> _SH31)


def _words_to_unit(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in the open interval (0, 1)."""
    return ((words >> _SH11).astype(np.float64) + 0.5) * _INV_2_53


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

    ``offspring_at(n, k)`` etc. address individual cells (k >= 1);
    the ``*_row`` variants fetch k = 1..count as a vector and agree with
    the scalar reads bit for bit.
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

    # -- addressing ---------------------------------------------------------

    def _row_key(self, tag: int, n: int) -> int:
        if not 0 <= n <= INDEX_CAP:
            raise ValueError(f"generation index {n} outside [0, {INDEX_CAP}]")
        h = _mix(self.seed.value + _GOLDEN * tag)
        h = _mix(h + _GOLDEN * (self.replicate_id + 1))
        return _mix(h + _GOLDEN * n)

    def _unit_row(self, tag: int, n: int, start_k: int, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be >= 0")
        if start_k < 1 or start_k + count - 1 > INDEX_CAP:
            raise ValueError(f"positions [{start_k}, {start_k + count - 1}] outside [1, {INDEX_CAP}]")
        key = np.uint64(self._row_key(tag, n))
        k = np.arange(start_k, start_k + count, dtype=np.uint64)
        return _words_to_unit(_mix_array((k * _U64_GOLDEN) ^ key))

    # -- rows ---------------------------------------------------------------

    def offspring_row(self, n: int, count: int) -> np.ndarray:
        """Offspring counts of individuals 1..count in generation n."""
        u = self._unit_row(_TAG_OFFSPRING, n, 1, count)
        return self.laws.offspring.quantile(u)

    def claim_row(self, n: int, count: int) -> np.ndarray:
        """Claims of the first ``count`` prospective children of generation n."""
        u = self._unit_row(_TAG_CLAIM, n, 1, count)
        return np.asarray(self.laws.claim.icdf(u), dtype=np.float64)

    def resource_row(self, n: int, count: int) -> np.ndarray:
        """Resource production of individuals 1..count in generation n."""
        u = self._unit_row(_TAG_RESOURCE, n, 1, count)
        return np.asarray(self.laws.resource.icdf(u), dtype=np.float64)

    def aux_row(self, n: int, count: int) -> np.ndarray:
        """Claim-independent uniforms, used by randomising policies."""
        return self._unit_row(_TAG_AUX, n, 1, count)

    # -- scalar cells -------------------------------------------------------

    def offspring_at(self, n: int, k: int) -> int:
        u = self._unit_row(_TAG_OFFSPRING, n, k, 1)
        return int(self.laws.offspring.quantile(u)[0])

    def claim_at(self, n: int, k: int) -> float:
        u = self._unit_row(_TAG_CLAIM, n, k, 1)
        return float(np.asarray(self.laws.claim.icdf(u), dtype=np.float64)[0])

    def resource_at(self, n: int, k: int) -> float:
        u = self._unit_row(_TAG_RESOURCE, n, k, 1)
        return float(np.asarray(self.laws.resource.icdf(u), dtype=np.float64)[0])


def _row_keys(base: Universe, tag: int, ids: np.ndarray, n: int) -> np.ndarray:
    """``_row_key(tag, n)`` of many replicate ids at once, bit for bit."""
    if not 0 <= n <= INDEX_CAP:
        raise ValueError(f"generation index {n} outside [0, {INDEX_CAP}]")
    ids = np.asarray(ids, dtype=np.uint64)
    h = np.uint64(_mix(base.seed.value + _GOLDEN * tag))
    h2 = _mix_array(h + _U64_GOLDEN * (ids + np.uint64(1)))
    # scalar uint64 products go through Python ints: numpy warns on scalar
    # wraparound even though wrapping is exactly what we want
    return _mix_array(h2 + np.uint64((n * _GOLDEN) & _MASK64))


class ReplicateRows:
    """Generation n of many replicates of one universe, read as 2-D blocks.

    Row i of ``offspring(rows, count)`` equals
    ``base.derive_replicate(ids[rows[i]]).offspring_row(n, count)`` bit for
    bit, and likewise for claims, resources and aux.  Each block is
    C-contiguous, so ``block.sum(axis=1)`` adds every row with the same
    pairwise tree as ``np.sum`` of that row alone.
    """

    def __init__(self, base: Universe, ids: np.ndarray, n: int):
        self._base = base
        self._ids = ids
        self._n = n
        self._keys: dict[int, np.ndarray] = {}

    def _units(self, tag: int, rows: np.ndarray, count: int) -> np.ndarray:
        if count > INDEX_CAP:
            raise ValueError(f"positions [1, {count}] outside [1, {INDEX_CAP}]")
        keys = self._keys.get(tag)
        if keys is None:
            keys = self._keys[tag] = _row_keys(self._base, tag, self._ids, self._n)
        k = np.arange(1, count + 1, dtype=np.uint64)
        return _words_to_unit(_mix_array((k * _U64_GOLDEN) ^ keys[rows, None]))

    def offspring(self, rows: np.ndarray, count: int) -> np.ndarray:
        return self._base.laws.offspring.quantile(self._units(_TAG_OFFSPRING, rows, count))

    def claims(self, rows: np.ndarray, count: int) -> np.ndarray:
        u = self._units(_TAG_CLAIM, rows, count)
        return np.asarray(self._base.laws.claim.icdf(u), dtype=np.float64)

    def resources(self, rows: np.ndarray, count: int) -> np.ndarray:
        u = self._units(_TAG_RESOURCE, rows, count)
        return np.asarray(self._base.laws.resource.icdf(u), dtype=np.float64)

    def aux(self, rows: np.ndarray, count: int) -> np.ndarray:
        return self._units(_TAG_AUX, rows, count)

