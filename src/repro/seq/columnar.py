"""Columnar fragments: int64 value blocks and mixed-radix key codes.

A *block* is an ``(rows, arity)`` int64 array holding one relation's (or
one server fragment's) tuples, one row per tuple.  Keys over a few of its
columns are compared as single integers: the values ``(v_0, .., v_{k-1})``
at the key positions encode as the little-endian mixed-radix code
``sum_i v_i * n^i`` over the domain ``[0, n)``.  The code is exact while
``n^k`` stays below :data:`CODE_LIMIT`; past it, :func:`key_codes` ranks
the keys instead, so equal keys always get equal codes.

The same encoding names the items of the sketched statistics
(:meth:`repro.sketch.statistics.RelationSketchSpec.encode_batch`) and the
counting keys of :meth:`repro.stats.HeavyHitterStatistics.of`.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Sequence, Union

import numpy as np

from .relation import RelationError, Tuple

#: A fragment as the engines hand it over: a block or a collection of tuples.
Fragment = Union[np.ndarray, Collection[Tuple]]

#: Mixed-radix codes are exact integers while ``n^k`` stays below this.
CODE_LIMIT = 1 << 63


def codes_fit(domain_size: int, width: int) -> bool:
    """Whether ``width`` values from ``[0, domain_size)`` encode exactly."""
    return domain_size ** width < CODE_LIMIT


def mixed_radix_codes(
    block: np.ndarray, positions: Sequence[int], domain_size: int
) -> np.ndarray:
    """``sum_i block[:, positions[i]] * domain_size**i`` as uint64 codes.

    The caller keeps ``domain_size ** len(positions)`` within 64 bits
    (:func:`codes_fit`); no position gives all-zero codes.
    """
    codes = np.zeros(block.shape[0], dtype=np.uint64)
    weight = 1
    for pos in positions:
        codes += block[:, pos].astype(np.uint64) * np.uint64(weight)
        weight *= domain_size
    return codes


def key_codes(
    keys: Sequence[tuple[np.ndarray, Sequence[int]]], domain_size: int
) -> list[np.ndarray]:
    """Codes for the keys at ``positions`` of each ``(block, positions)``.

    Equal keys get equal codes, across all the blocks: mixed-radix codes
    when the key width fits, otherwise the joint rank of every key among
    all of them.
    """
    if codes_fit(domain_size, len(keys[0][1])):
        return [mixed_radix_codes(block, positions, domain_size)
                for block, positions in keys]
    stacked = np.concatenate(
        [block[:, list(positions)] for block, positions in keys])
    _, ranks = np.unique(stacked, axis=0, return_inverse=True)
    ends = np.cumsum([len(block) for block, _ in keys])
    return np.split(ranks.reshape(-1), ends[:-1])


def as_block(
    name: str, fragment: Fragment, arity: int, domain_size: int
) -> np.ndarray:
    """The validated ``(rows, arity)`` int64 block of one fragment.

    Arity and domain are checked once per fragment, with one vectorized
    min/max, and violations raise :class:`RelationError` naming the
    relation like :class:`~repro.seq.relation.Relation` does.
    """
    if isinstance(fragment, np.ndarray):
        if fragment.size and not np.issubdtype(fragment.dtype, np.integer):
            raise RelationError(
                f"relation {name!r}: fragment of dtype {fragment.dtype}, "
                "expected integers")
        block = fragment.astype(np.int64, copy=False)
        if block.ndim == 1 and not block.size:
            block = block.reshape(0, arity)
        if block.ndim != 2 or block.shape[1] != arity:
            raise RelationError(
                f"relation {name!r}: fragment of shape {block.shape}, "
                f"expected (rows, {arity})")
    else:
        try:
            lengths = set(map(len, fragment))
            values = np.fromiter(
                chain.from_iterable(fragment), dtype=np.int64,
                count=len(fragment) * arity,
            ) if lengths <= {arity} else None
        except (ValueError, TypeError, OverflowError) as exc:
            raise RelationError(
                f"relation {name!r}: fragment is not a collection of "
                f"integer tuples inside [0, {domain_size}): {exc}"
            ) from None
        if values is None:
            raise RelationError(
                f"relation {name!r}: tuples of length "
                f"{sorted(lengths - {arity})}, expected arity {arity}")
        block = values.reshape(len(fragment), arity)
    if block.size and (block.min() < 0 or block.max() >= domain_size):
        bad = block[(block < 0) | (block >= domain_size)][0]
        raise RelationError(
            f"relation {name!r}: value {int(bad)} outside domain "
            f"[0, {domain_size})")
    return block


def answer_set(block: np.ndarray, domain_size: int) -> frozenset[Tuple]:
    """The rows of ``block`` as a frozenset of tuples of plain ints.

    Every distinct value becomes one Python int that all tuples holding
    it share, so a large answer set costs its tuples, not a fresh int per
    cell.
    """
    rows, width = block.shape
    if not rows or not width:
        return frozenset({()} if rows else ())
    if domain_size <= block.size:
        objects = np.array(range(domain_size), dtype=object)[block]
    else:
        values, index = np.unique(block, return_inverse=True)
        objects = np.array(values.tolist(), dtype=object)[
            index.reshape(block.shape)]
    return frozenset(zip(*(objects[:, j].tolist() for j in range(width))))
