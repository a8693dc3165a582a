"""Sequential multiway joins: the oracle and the columnar server kernel.

``evaluate(query, db)`` returns the full answer set ``q(I)`` as tuples in
head-variable order.  It is the ground truth every parallel algorithm is
checked against: a classic left-deep multiway hash join, tuple at a time.
Atoms are ordered greedily (smallest relation first, then atoms sharing
the most already-bound variables), and each step probes a hash index built
on the shared variables.  This is not worst-case optimal, but at the scales
of the experiments (``m <= 10^5``) it is comfortably fast and — more
importantly — simple enough to trust as an oracle.

``local_join(query, fragments, n)`` joins what one MPC server received.
It is the columnar kernel the engines run once per server, checked against
``evaluate`` on the same fragments: the same greedy atom order, but each
step is a sort-merge join over int64 blocks — the shared columns become
mixed-radix key codes (:mod:`repro.seq.columnar`), the build side is
sorted once, the probe side is located with ``searchsorted`` and the
matches are expanded with ``np.repeat``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..query.atoms import Atom, ConjunctiveQuery
from .columnar import Fragment, answer_set, as_block, key_codes
from .relation import Database, Relation, RelationError, Tuple


def _atom_order(
    query: ConjunctiveQuery, cardinality: Mapping[str, int]
) -> list[Atom]:
    """Greedy join order: smallest first, then maximize shared variables."""
    remaining = list(query.atoms)
    remaining.sort(key=lambda a: cardinality[a.name])
    ordered: list[Atom] = []
    bound: set[str] = set()
    while remaining:
        def rank(atom: Atom) -> tuple[int, int]:
            shared = len(atom.variable_set & bound)
            return (-shared, cardinality[atom.name])

        best = min(remaining, key=rank)
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variable_set
    return ordered


def _distinct_in_order(variables: Sequence[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for var in variables:
        if var not in seen:
            seen.add(var)
            out.append(var)
    return out


def _index_atom(
    atom: Atom,
    relation: Relation,
    shared_vars: Sequence[str],
    new_vars: Sequence[str],
) -> dict[Tuple, list[Tuple]]:
    """Hash the relation's tuples by their values on ``shared_vars``.

    Tuples that are internally inconsistent with repeated variables (e.g.
    ``S(x, x)`` requires both positions equal) are dropped here.
    """
    shared_positions = [atom.positions_of(v)[0] for v in shared_vars]
    new_positions = [atom.positions_of(v)[0] for v in new_vars]
    repeated = [
        positions
        for positions in (atom.positions_of(v) for v in atom.variable_set)
        if len(positions) > 1
    ]
    index: dict[Tuple, list[Tuple]] = {}
    for t in relation.tuples:
        if any(len({t[p] for p in positions}) != 1 for positions in repeated):
            continue
        key = tuple(t[p] for p in shared_positions)
        index.setdefault(key, []).append(tuple(t[p] for p in new_positions))
    return index


def iterate_answers(
    query: ConjunctiveQuery, db: Database
) -> Iterable[Tuple]:
    """Yield the answers of ``query`` on ``db`` in head-variable order."""
    db.validate_against(query)
    order = _atom_order(
        query, {a.name: db.relation(a.name).cardinality for a in query.atoms})

    bound_vars: list[str] = []
    partials: list[Tuple] = [()]
    for atom in order:
        relation = db.relation(atom.name)
        atom_vars = _distinct_in_order(atom.variables)
        bound_set = set(bound_vars)
        shared_vars = [v for v in atom_vars if v in bound_set]
        new_vars = [v for v in atom_vars if v not in bound_set]
        index = _index_atom(atom, relation, shared_vars, new_vars)
        shared_slots = [bound_vars.index(v) for v in shared_vars]

        next_partials: list[Tuple] = []
        for partial in partials:
            key = tuple(partial[s] for s in shared_slots)
            for extension in index.get(key, ()):
                next_partials.append(partial + extension)
        partials = next_partials
        bound_vars.extend(new_vars)
        if not partials:
            return

    head_slots = [bound_vars.index(v) for v in query.head]
    for partial in partials:
        yield tuple(partial[s] for s in head_slots)


def evaluate(query: ConjunctiveQuery, db: Database) -> frozenset[Tuple]:
    """The answer set ``q(I)`` in head-variable order."""
    return frozenset(iterate_answers(query, db))


def count_answers(query: ConjunctiveQuery, db: Database) -> int:
    """``|q(I)|`` without materializing the set twice."""
    return len(evaluate(query, db))


def local_join(query: ConjunctiveQuery, fragments: Mapping[str, Fragment],
               domain_size: int) -> frozenset[Tuple]:
    """Join the *fragments* a single MPC server received.

    A fragment is an ``(rows, arity)`` int64 block or any collection of
    tuples.  Missing relations are treated as empty: a server that received
    no tuple of some atom contributes no answers.  Answers are tuples of
    plain ints in head-variable order, as :func:`evaluate` returns them.
    """
    return answer_set(join_block(query, fragments, domain_size), domain_size)


def join_block(query: ConjunctiveQuery, fragments: Mapping[str, Fragment],
               domain_size: int) -> np.ndarray:
    """The answers of :func:`local_join` as an int64 block, head order.

    Rows are distinct when every fragment's rows are.
    """
    if domain_size < 1:
        raise RelationError("domain size must be >= 1")
    blocks = {
        atom.name: as_block(atom.name, fragments.get(atom.name, ()),
                            atom.arity, domain_size)
        for atom in query.atoms
    }
    empty = np.empty((0, query.num_variables), dtype=np.int64)
    bound: list[str] = []
    partial = np.empty((1, 0), dtype=np.int64)
    order = _atom_order(query, {name: len(b) for name, b in blocks.items()})
    for atom in order:
        atom_vars = _distinct_in_order(atom.variables)
        build = _consistent_columns(atom, blocks[atom.name], atom_vars)
        shared = [i for i, v in enumerate(atom_vars) if v in bound]
        new = [i for i, v in enumerate(atom_vars) if v not in bound]
        if shared:
            probe_codes, build_codes = key_codes(
                [(partial, [bound.index(atom_vars[i]) for i in shared]),
                 (build, shared)],
                domain_size)
            # Sort both sides: searchsorted runs several times faster on
            # sorted probes than on probes in random order.
            build_order = np.argsort(build_codes)
            probe_order = np.argsort(probe_codes)
            sorted_build = build_codes[build_order]
            sorted_probe = probe_codes[probe_order]
            first = np.searchsorted(sorted_build, sorted_probe, side="left")
            count = np.searchsorted(sorted_build, sorted_probe,
                                    side="right") - first
            total = int(count.sum())
            probe_rows = np.repeat(probe_order, count)
            # The k-th match of a probe row is build row
            # build_order[first + k].
            within = np.arange(total) - np.repeat(np.cumsum(count) - count,
                                                  count)
            build_rows = build_order[np.repeat(first, count) + within]
        else:
            probe_rows = np.repeat(np.arange(len(partial)), len(build))
            build_rows = np.tile(np.arange(len(build)), len(partial))
        if not len(probe_rows):
            return empty
        partial = np.concatenate(
            [partial[probe_rows], build[:, new][build_rows]], axis=1)
        bound.extend(atom_vars[i] for i in new)
    return partial[:, [bound.index(v) for v in query.head]]


def _consistent_columns(
    atom: Atom, block: np.ndarray, atom_vars: Sequence[str]
) -> np.ndarray:
    """One column per distinct variable, dropping rows that give a
    repeated variable (``S(x, x)``) two different values."""
    keep = None
    for var in atom_vars:
        positions = atom.positions_of(var)
        for pos in positions[1:]:
            equal = block[:, positions[0]] == block[:, pos]
            keep = equal if keep is None else keep & equal
    columns = block[:, [atom.positions_of(v)[0] for v in atom_vars]]
    return columns if keep is None else columns[keep]


def expected_answer_count(query: ConjunctiveQuery, cardinalities: dict[str, int],
                          domain_size: int) -> float:
    """``E[|q(I)|] = n^(k-a) * prod_j m_j`` (Lemma A.1).

    The expectation is over instances where each ``S_j`` is a uniformly
    random subset of ``[n]^{a_j}`` with exactly ``m_j`` tuples.
    """
    n = domain_size
    k = query.num_variables
    a = query.total_arity
    value = float(n) ** (k - a)
    for atom in query.atoms:
        try:
            value *= cardinalities[atom.name]
        except KeyError:
            raise RelationError(
                f"missing cardinality for relation {atom.name!r}"
            ) from None
    return value
