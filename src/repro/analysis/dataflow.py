"""A small fixed-point engine over the project call graph.

The whole-program rule (see :mod:`repro.analysis.graph_rules`) reduces
to propagating simple facts along call edges until nothing changes:
which locks are held on every thread path into a function.
:func:`fixed_point` is that worklist loop; the lattice is given by its
``join``.

Facts are compared with ``==`` and must be hashable-free plain values
(bools, frozensets, ``None``); ``transfer`` callbacks let an edge modify
the fact in flight (e.g. a call site inside ``with self._lock`` adds
that lock to the callee's entry fact).  The iteration order is
deterministic — sorted seeds, sorted successor expansion — so two runs
over the same graph produce identical results, which the byte-identical
``--jobs N`` contract relies on.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping

__all__ = ["fixed_point", "intersect_join"]

#: Sentinel distinguishing "no fact yet" from a legitimate ``None`` fact.
_MISSING = object()

Edge = "tuple[Hashable, Callable | None]"


def fixed_point(
    seeds: "Mapping[Hashable, object]",
    edges: "Mapping[Hashable, Iterable[Edge]]",
    join: "Callable[[object, object], object]",
) -> "dict[Hashable, object]":
    """Propagate ``seeds`` along ``edges`` until the facts stabilise.

    ``edges`` maps a source node to ``(destination, transfer)`` pairs;
    ``transfer(fact)`` (identity when ``None``) is the edge's
    contribution to the destination, merged into the destination's
    current fact with ``join``.  A destination with no fact yet adopts
    the contribution unchanged — so ``join`` never sees an implicit
    bottom (an intersection join would otherwise need the set of every
    lock as its starting fact, which the sentinel sidesteps).

    Termination is the caller's contract: ``join`` must be monotone over
    a finite lattice (the use here is finite lock sets).
    """
    facts: "dict[Hashable, object]" = dict(seeds)
    work = sorted(facts, key=repr)
    while work:
        node = work.pop()
        fact = facts[node]
        for dst, transfer in sorted(edges.get(node, ()), key=repr):
            contribution = transfer(fact) if transfer is not None else fact
            current = facts.get(dst, _MISSING)
            merged = (
                contribution if current is _MISSING else join(current, contribution)
            )
            if current is _MISSING or merged != current:
                facts[dst] = merged
                work.append(dst)
    return facts


def intersect_join(a: frozenset, b: frozenset) -> frozenset:
    """Must-analysis join: a fact holds only if it holds on *every* path."""
    return a & b

