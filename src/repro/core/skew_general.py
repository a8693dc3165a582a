"""The general skew-aware algorithm (Section 4.2, Appendix D).

One HyperCube instance per *bin combination* ``B = (x, (beta_j)_j)``:

1. Heavy hitters of every (relation, variable-subset) pair are split into
   ``O(log p)`` frequency bins (`repro.stats.bins`).
2. The sets ``C'(B)`` of handled assignments are built inductively: an
   assignment joins ``C'(B)`` when it extends some ``h' in C'(B')`` (for a
   bin combination ``B'`` on a strictly smaller variable set) by a heavy
   hitter that is *overweight* for ``B'`` — i.e. has more than
   ``Nbc * m_j / p^(beta'_j + sum e_i^(B'))`` consistent tuples.
3. Every ``B`` gets share exponents from the LP (11)

       minimize lambda
       s.t.     lambda + sum_{x_i in vars(S_j) - x_j} e_i >= mu_j - beta_j
                sum_{i in V - x} e_i <= 1 - alpha,   alpha = log_p |C'(B)|

   and ``p`` (virtual) servers: ``p^(1-alpha)`` per assignment ``h``, each
   block running HyperCube on the residual variables ``V - x``.
4. A tuple of ``S_j`` participates in ``B`` for the assignments it extends,
   unless it contains an overweight-for-``B`` proper extension — in which
   case a finer bin combination owns it (Lemma 4.5 guarantees every answer
   is produced by some ``B``).

All bin combinations share the same ``p`` physical servers; their loads add,
which costs the ``polylog(p)`` factor of Theorem 4.6.  The theoretical load
``max_B p^(lambda(B))`` is exposed via :meth:`BinHyperCubePlan.describe`.

``Nbc`` is the paper's bin-combination count; we expose it as a knob
(default 1.0).  Smaller values make more hitters overweight — more dedicated
handling, better balance — while correctness holds for any value because the
overweight chains always terminate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from ..lp.fraction_utils import log_base_fraction
from ..lp.simplex import LPError, maximize
from ..mpc.execution import OneRoundAlgorithm, RoutingPlan
from ..mpc.hashing import HashFamily
from ..query.atoms import ConjunctiveQuery
from ..query.residual import residual_query
from ..seq.relation import Database, Tuple
from ..stats.bins import BinCombination, combination_for_assignment
from ..stats.provider import StatisticsProvider
from ..stats.heavy_hitters import (
    HeavyHitterStatistics,
    VarSubset,
    canonical_subset,
)
from .hypercube import HyperCubePlan
from .shares import integer_shares

# An assignment to a variable set, canonically sorted by variable name.
Assg = tuple[tuple[str, int], ...]


def _proper_supersets(atom_vars: VarSubset, xj: VarSubset) -> list[VarSubset]:
    """Canonical subsets of ``atom_vars`` strictly containing ``xj``."""
    extra = [v for v in atom_vars if v not in set(xj)]
    out: list[VarSubset] = []
    for mask in range(1, 1 << len(extra)):
        added = [extra[i] for i in range(len(extra)) if mask & (1 << i)]
        out.append(canonical_subset(set(xj) | set(added)))
    return out


@dataclass(frozen=True)
class BinLP:
    """Solution of the LP (11) for one bin combination."""

    lam: Fraction
    exponents: Mapping[str, Fraction]  # for the variables of V - x

    def load_bits(self, p: int) -> float:
        return float(p) ** float(self.lam)


def solve_bin_lp(
    query: ConjunctiveQuery,
    combo: BinCombination,
    alpha: Fraction,
    bits: Mapping[str, float],
    p: int,
) -> BinLP:
    """Solve (11) exactly.  Variables are ``[e_i for i in V - x] + [lambda]``."""
    remaining = [v for v in query.variables if v not in combo.variables]
    if p < 2:
        # A single server: every share is 1 and the load is the whole input.
        return BinLP(
            lam=Fraction(0),
            exponents={var: Fraction(0) for var in remaining},
        )
    index = {var: i for i, var in enumerate(remaining)}
    n = len(remaining)

    objective = [Fraction(0)] * n + [Fraction(-1)]
    a: list[list[Fraction]] = []
    b: list[Fraction] = []
    # sum_{i in V - x} e_i <= 1 - alpha
    a.append([Fraction(1)] * n + [Fraction(0)])
    b.append(Fraction(1) - alpha)
    for atom in query.atoms:
        if bits[atom.name] <= 0:
            continue  # empty relations impose no constraint
        mu = log_base_fraction(bits[atom.name], float(p))
        beta = combo.beta(atom.name)
        row = [Fraction(0)] * (n + 1)
        for var in atom.variable_set:
            if var in index:
                row[index[var]] = Fraction(-1)
        row[n] = Fraction(-1)
        a.append(row)
        b.append(-(mu - beta))

    result = maximize(objective, a, b)
    if not result.is_optimal:  # pragma: no cover - (11) is always feasible
        raise LPError(f"bin LP for {combo.describe()} returned {result.status}")
    return BinLP(
        lam=result.x[n],
        exponents={var: result.x[index[var]] for var in remaining},
    )


def build_cprime(
    query: ConjunctiveQuery,
    stats: StatisticsProvider,
    p: int,
    bits: Mapping[str, float],
    nbc: float = 1.0,
) -> tuple[dict[BinCombination, frozenset[Assg]], dict[BinCombination, BinLP]]:
    """The inductive construction of ``C'(B)`` (Appendix D) plus per-``B``
    LP solutions, processed level by level on ``|x|``."""
    combos: dict[BinCombination, set[Assg]] = {BinCombination.empty(): {()}}
    lps: dict[BinCombination, BinLP] = {}

    for level in range(query.num_variables + 1):
        current = [
            combo for combo in list(combos) if len(combo.variables) == level
        ]
        for combo in sorted(current, key=lambda c: repr(c)):
            members = combos[combo]
            alpha = (
                Fraction(0)
                if len(members) <= 1 or p < 2
                else min(
                    Fraction(1),
                    log_base_fraction(float(len(members)), float(p)),
                )
            )
            lp = solve_bin_lp(query, combo, alpha, bits, p)
            lps[combo] = lp
            _generate_extensions(
                query, stats, p, nbc, combo, members, lp, combos
            )
    return (
        {combo: frozenset(members) for combo, members in combos.items()},
        lps,
    )


def _generate_extensions(
    query: ConjunctiveQuery,
    stats: StatisticsProvider,
    p: int,
    nbc: float,
    combo: BinCombination,
    members: set[Assg],
    lp: BinLP,
    combos: dict[BinCombination, set[Assg]],
) -> None:
    """Push overweight extensions of ``C'(combo)`` into finer combinations."""
    for atom in query.atoms:
        m_j = stats.simple.cardinality(atom.name)
        if m_j == 0:
            continue
        atom_vars = canonical_subset(atom.variables)
        xj_prime = combo.atom_subset(query, atom.name)
        beta_prime = combo.beta(atom.name)
        for xj in _proper_supersets(atom_vars, xj_prime):
            heavy = stats.heavy_hitters(atom.name, xj)
            if not heavy:
                continue
            new_vars = [v for v in xj if v not in set(xj_prime)]
            exponent = float(beta_prime) + sum(
                float(lp.exponents[v]) for v in new_vars
            )
            threshold = nbc * m_j / (float(p) ** exponent)
            for h_prime in members:
                h_dict = dict(h_prime)
                for hj, freq in heavy.items():
                    if freq <= threshold:
                        continue
                    values = dict(zip(xj, hj))
                    # hj must agree with h' on the previously bound subset.
                    if any(
                        var in h_dict and h_dict[var] != value
                        for var, value in values.items()
                    ):
                        continue
                    merged = dict(h_dict)
                    merged.update(values)
                    target = combination_for_assignment(query, stats, merged)
                    combos.setdefault(target, set()).add(
                        tuple(sorted(merged.items()))
                    )


@dataclass
class _CombinationPlan:
    """Everything needed to route tuples for one bin combination."""

    combo: BinCombination
    lp: BinLP
    assignments: tuple[Assg, ...]
    inner: HyperCubePlan
    kept_positions: Mapping[str, tuple[int, ...]]
    # Per atom with x_j nonempty: projection positions and the index from
    # projected values to assignment slots.
    heavy_index: Mapping[str, Mapping[Tuple, tuple[int, ...]]]
    heavy_positions: Mapping[str, tuple[int, ...]]
    # Overweight filter: per atom, (projection positions, subset, threshold).
    filters: Mapping[str, tuple[tuple[tuple[int, ...], VarSubset, float], ...]]
    # The same filter resolved for the batch path: per atom, (projection
    # positions, heavy keys above the threshold), empty key sets dropped.
    overweight: Mapping[str, tuple[tuple[tuple[int, ...], frozenset[Tuple]], ...]]
    stats: StatisticsProvider
    p: int

    def _block(self, slot: int) -> tuple[int, int]:
        """(start, size) of the server block of assignment ``slot``."""
        count = len(self.assignments)
        if count <= self.p:
            start = slot * self.p // count
            end = (slot + 1) * self.p // count
            return start, max(1, end - start)
        return slot % self.p, 1

    def destinations_for(self, relation_name: str, tup: Tuple) -> Iterable[int]:
        for positions, subset, threshold in self.filters.get(relation_name, ()):
            projected = tuple(tup[i] for i in positions)
            freq = self.stats.frequency(relation_name, subset, projected)
            if freq is not None and freq > threshold:
                return ()
        positions = self.heavy_positions.get(relation_name)
        if positions is not None:
            projected = tuple(tup[i] for i in positions)
            slots = self.heavy_index[relation_name].get(projected, ())
        else:
            slots = range(len(self.assignments))
        if not slots:
            return ()
        residual_tuple = tuple(
            tup[i] for i in self.kept_positions[relation_name]
        )
        inner = tuple(self.inner.destinations(relation_name, residual_tuple))
        out: list[int] = []
        for slot in slots:
            start, size = self._block(slot)
            for d in inner:
                if d < size:
                    out.append(start + d)
        return out


@dataclass(frozen=True)
class _Route:
    """How one routing class passes through one bin combination."""

    inner: HyperCubePlan
    columns: tuple[int, ...]  # original-tuple column of each residual position
    offsets: tuple[int, ...]  # the inner plan's replication offsets
    blocks: tuple[tuple[int, int], ...]  # distinct (start, size) server blocks


class BinHyperCubePlan(RoutingPlan):
    def __init__(
        self,
        query: ConjunctiveQuery,
        stats: StatisticsProvider,
        p: int,
        hashes: HashFamily,
        nbc: float = 1.0,
    ) -> None:
        self.query = query
        self.stats = stats
        self.p = p
        self._nbc = nbc
        bits = {
            atom.name: stats.simple.bits(atom.name) for atom in query.atoms
        }
        combos, lps = build_cprime(query, stats, p, bits, nbc=nbc)
        self.combo_plans: list[_CombinationPlan] = []
        for combo_id, (combo, members) in enumerate(sorted(
            combos.items(), key=lambda item: repr(item[0])
        )):
            if not members:
                continue
            plan = self._build_combination_plan(
                combo_id, combo, members, lps[combo], bits, hashes
            )
            self.combo_plans.append(plan)
        self._classifiers = self._build_classifiers()
        self._routes_memo: dict[tuple[str, tuple], tuple[_Route, ...]] = {}

    def _build_combination_plan(
        self,
        combo_id: int,
        combo: BinCombination,
        members: frozenset[Assg],
        lp: BinLP,
        bits: Mapping[str, float],
        hashes: HashFamily,
    ) -> _CombinationPlan:
        assignments = tuple(sorted(members))
        count = len(assignments)
        min_block = max(1, self.p // count) if count <= self.p else 1

        residual = residual_query(self.query, combo.variables)
        residual_bits = {
            atom.name: max(
                1.0, bits[atom.name] / float(self.p) ** float(combo.beta(atom.name))
            )
            for atom in self.query.atoms
        }
        shares = integer_shares(
            residual.query,
            lp.exponents,
            min_block,
            strategy="greedy",
            bits=residual_bits,
        )
        inner = HyperCubePlan(
            residual.query,
            shares,
            hashes,
            salt_prefix=f"bin{combo_id}",
        )

        kept_positions = {
            atom.name: residual.kept_positions(atom.name)
            for atom in self.query.atoms
        }

        heavy_index: dict[str, dict[Tuple, tuple[int, ...]]] = {}
        heavy_positions: dict[str, tuple[int, ...]] = {}
        for atom in self.query.atoms:
            xj = combo.atom_subset(self.query, atom.name)
            if not xj:
                continue
            heavy_positions[atom.name] = tuple(
                atom.positions_of(var)[0] for var in xj
            )
            index: dict[Tuple, list[int]] = {}
            for slot, assignment in enumerate(assignments):
                h_dict = dict(assignment)
                projected = tuple(h_dict[var] for var in xj)
                index.setdefault(projected, []).append(slot)
            heavy_index[atom.name] = {
                key: tuple(slots) for key, slots in index.items()
            }

        filters: dict[str, tuple[tuple[tuple[int, ...], VarSubset, float], ...]] = {}
        for atom in self.query.atoms:
            m_j = self.stats.simple.cardinality(atom.name)
            if m_j == 0:
                continue
            xj = combo.atom_subset(self.query, atom.name)
            beta = combo.beta(atom.name)
            rows = []
            for superset in _proper_supersets(
                canonical_subset(atom.variables), xj
            ):
                new_vars = [v for v in superset if v not in set(xj)]
                exponent = float(beta) + sum(
                    float(lp.exponents[v]) for v in new_vars
                )
                threshold = self._nbc * m_j / (float(self.p) ** exponent)
                positions = tuple(atom.positions_of(var)[0] for var in superset)
                rows.append((positions, superset, threshold))
            filters[atom.name] = tuple(rows)

        overweight: dict[
            str, tuple[tuple[tuple[int, ...], frozenset[Tuple]], ...]
        ] = {}
        for name, rows in filters.items():
            resolved = []
            for positions, subset, threshold in rows:
                keys = frozenset(
                    key
                    for key, freq in self.stats.heavy_hitters(name, subset).items()
                    if freq > threshold
                )
                if keys:
                    resolved.append((positions, keys))
            if resolved:
                overweight[name] = tuple(resolved)

        return _CombinationPlan(
            combo=combo,
            lp=lp,
            assignments=assignments,
            inner=inner,
            kept_positions=kept_positions,
            heavy_index=heavy_index,
            heavy_positions=heavy_positions,
            filters=filters,
            overweight=overweight,
            stats=self.stats,
            p=self.p,
        )

    def _build_classifiers(
        self,
    ) -> dict[str, tuple[tuple[tuple[int, ...], dict[object, Tuple]], ...]]:
        """Per atom, the projections that decide a tuple's routing class.

        Whether a combination routes a tuple, and through which assignment
        slots, depends only on the tuple's projections onto the overweight
        filters' and the heavy index's position tuples — and only on
        whether each projection is one of the few keys those name.  So a
        tuple's class is that projection vector with every other value
        mapped to None.
        """
        classifiers = {}
        for atom in self.query.atoms:
            keys: dict[tuple[int, ...], set[Tuple]] = {}
            for plan in self.combo_plans:
                for positions, overweight in plan.overweight.get(atom.name, ()):
                    keys.setdefault(positions, set()).update(overweight)
                positions = plan.heavy_positions.get(atom.name)
                if positions is not None:
                    keys.setdefault(positions, set()).update(
                        plan.heavy_index[atom.name]
                    )
            # ``itemgetter`` of one position yields the bare value, so the
            # lookup is keyed the same way and maps back to the key tuple.
            classifiers[atom.name] = tuple(
                (
                    positions,
                    {
                        (key[0] if len(positions) == 1 else key): key
                        for key in relevant
                    },
                )
                for positions, relevant in sorted(keys.items())
            )
        return classifiers

    def _classify(
        self, relation_name: str, tuples: Sequence[Tuple]
    ) -> dict[tuple, list[int]]:
        """Group tuple indices by routing class (see `_build_classifiers`)."""
        classifiers = self._classifiers[relation_name]
        if not classifiers:
            return {(): list(range(len(tuples)))}
        columns = []
        for positions, lookup in classifiers:
            get = lookup.get
            columns.append([get(value) for value in map(
                itemgetter(*positions), tuples
            )])
        groups: dict[tuple, list[int]] = {}
        for index, key in enumerate(zip(*columns)):
            groups.setdefault(key, []).append(index)
        return groups

    def _routes(self, relation_name: str, key: tuple) -> tuple[_Route, ...]:
        """The combinations a class is routed through, decided once.

        Mirrors :meth:`_CombinationPlan.destinations_for`'s overweight
        filter and slot lookup on the class key instead of a tuple.
        """
        memo_key = (relation_name, key)
        routes = self._routes_memo.get(memo_key)
        if routes is not None:
            return routes
        projected = {
            positions: value
            for (positions, _lookup), value in zip(
                self._classifiers[relation_name], key
            )
        }
        found: list[_Route] = []
        for plan in self.combo_plans:
            # A None projection is light, so never in an overweight set.
            if any(
                projected[positions] in keys
                for positions, keys in plan.overweight.get(relation_name, ())
            ):
                continue
            positions = plan.heavy_positions.get(relation_name)
            if positions is not None:
                slots = plan.heavy_index[relation_name].get(
                    projected[positions], ()
                )
            else:
                slots = range(len(plan.assignments))
            if not slots:
                continue
            found.append(_Route(
                inner=plan.inner,
                columns=plan.kept_positions[relation_name],
                offsets=plan.inner._free_offsets[relation_name],
                blocks=tuple(dict.fromkeys(plan._block(s) for s in slots)),
            ))
        routes = self._routes_memo[memo_key] = tuple(found)
        return routes

    def _routed_classes(
        self, relation_name: str, tuples: Sequence[Tuple]
    ) -> Iterator[
        tuple[list[int], tuple[_Route, ...], Iterable[tuple[int, ...]]]
    ]:
        """Per routed class: its tuple indices, its routes, and per member
        the inner grid base in every routed combination, resolved column
        by column through :meth:`HyperCubePlan._grid_bases`."""
        for key, indices in self._classify(relation_name, tuples).items():
            routes = self._routes(relation_name, key)
            if not routes:
                continue
            members = [tuples[i] for i in indices]
            columns = []
            for route in routes:
                bases = route.inner._grid_bases(
                    relation_name, members, route.columns
                )
                columns.append(
                    repeat(0, len(members)) if bases is None else bases
                )
            yield indices, routes, zip(*columns)

    @staticmethod
    def _expand(
        routes: tuple[_Route, ...], vector: tuple[int, ...]
    ) -> tuple[int, ...]:
        """The servers of one base vector, deduplicated across combinations."""
        servers: set[int] = set()
        for route, base in zip(routes, vector):
            cells = [base + offset for offset in route.offsets]
            for start, size in route.blocks:
                servers.update(start + d for d in cells if d < size)
        return tuple(servers)

    def destinations(self, relation_name: str, tup: Tuple) -> Iterable[int]:
        out: set[int] = set()
        for plan in self.combo_plans:
            out.update(plan.destinations_for(relation_name, tup))
        return out

    def destinations_batch(
        self, relation_name: str, tuples: Sequence[Tuple]
    ) -> list[tuple[int, ...]]:
        """Classify-then-route: each routing class is decided once, and
        each distinct base vector within a class is expanded once."""
        out: list[tuple[int, ...]] = [()] * len(tuples)
        for indices, routes, vectors in self._routed_classes(
            relation_name, tuples
        ):
            expanded: dict[tuple[int, ...], tuple[int, ...]] = {}
            for index, vector in zip(indices, vectors):
                servers = expanded.get(vector)
                if servers is None:
                    servers = expanded[vector] = self._expand(routes, vector)
                out[index] = servers
        return out

    def destination_counts(
        self, relation_name: str, tuples: Sequence[Tuple]
    ) -> Mapping[int, int]:
        """Count the distinct base vectors per class, then expand each once
        — the bin-combination generalisation of
        :func:`~repro.mpc.execution.fold_offset_counts`."""
        counts: Counter[int] = Counter()
        for _indices, routes, vectors in self._routed_classes(
            relation_name, tuples
        ):
            for vector, count in Counter(vectors).items():
                for server in self._expand(routes, vector):
                    counts[server] += count
        return counts

    def theoretical_load_bits(self) -> float:
        """``max_B p^(lambda(B))`` — the Theorem 4.6 target (sans polylog)."""
        return max(plan.lp.load_bits(self.p) for plan in self.combo_plans)

    def describe(self) -> Mapping[str, object]:
        return {
            "bin_combinations": len(self.combo_plans),
            "assignments": sum(len(c.assignments) for c in self.combo_plans),
            "theoretical_load_bits": self.theoretical_load_bits(),
        }

    def explain(self) -> str:
        """A human-readable summary: one line per bin combination."""
        lines = [
            f"bin-hypercube over p={self.p} "
            f"({len(self.combo_plans)} bin combinations)"
        ]
        for plan in self.combo_plans:
            shares = plan.inner.shares
            lines.append(
                f"  {plan.combo.describe()}: {len(plan.assignments)} "
                f"assignment(s), residual shares {shares}, "
                f"p^lambda = {plan.lp.load_bits(self.p):,.0f} bits"
            )
        lines.append(
            f"  predicted load max_B p^lambda(B) = "
            f"{self.theoretical_load_bits():,.0f} bits"
        )
        return "\n".join(lines)


class BinHyperCubeAlgorithm(OneRoundAlgorithm):
    """Theorem 4.6's algorithm: per-bin-combination HyperCube."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        stats: StatisticsProvider | None = None,
        nbc: float = 1.0,
    ) -> None:
        super().__init__(query, name="bin-hypercube")
        self._stats = stats
        self.nbc = nbc

    def predicted_load_bits(self, stats: object, p: int) -> float:
        """Theorem 4.6's target: per-combination loads add (all
        combinations share the same ``p`` physical servers).

        The empty combination *is* HyperCube with LP-optimal integer
        shares, so it is costed by that algorithm's own skew-free
        expectation (heavy values it would collapse on are owned by finer
        combinations instead).  With heavy-hitter statistics the real
        ``C'(B)`` construction runs and each populated non-empty
        combination contributes its LP target ``p^lambda(B)``; with simple
        statistics only the empty combination exists.
        """
        from .hypercube import HyperCubeAlgorithm

        simple = self._simple_stats(stats)
        bits = simple.bits_vector(self.query)
        if p < 2 or all(value <= 0 for value in bits.values()):
            return sum(bits.values())
        base = HyperCubeAlgorithm.with_optimal_shares(
            self.query, simple, p
        ).predicted_load_bits(simple, p)
        hh = self._heavy_stats(stats, p) or self._heavy_stats(self._stats, p)
        if hh is None:
            return base
        combos, lps = build_cprime(self.query, hh, p, bits, nbc=self.nbc)
        return base + sum(
            lps[combo].load_bits(p)
            for combo, members in combos.items()
            if members and combo.variables
        )

    def routing_plan(
        self, db: Database, p: int, hashes: HashFamily
    ) -> BinHyperCubePlan:
        stats = self._stats
        if stats is None or stats.p != p:
            stats = HeavyHitterStatistics.of(self.query, db, p)
        return BinHyperCubePlan(self.query, stats, p, hashes, nbc=self.nbc)
