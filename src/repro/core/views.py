"""Aggregate Pushdown + Merge Views layers (paper §3.2, §3.4).

Each query is decomposed into *directional views*, one per join-tree edge on
the paths from the leaves to the query's root. The view flowing from child C
into node S groups by ``(F ∩ omega_TC) ∪ keys(C, S)`` — plus any attribute a
factor evaluated above needs "bubbled up" (the paper's rule for aggregate
functions whose attributes are only partially inside a subtree) — and carries
one partial-product aggregate ("atom") per application aggregate.

Merging happens at construction time via interning:

- **case (3)** (identical views): ``ViewRegistry.get_view`` returns the
  existing view for an identical (source, target, group-by, incoming) key and
  ``add_atom`` dedups identical partial products, so a second query reuses
  the first query's views wholesale;
- **case (2)** (same group-by and body, different aggregates): the same
  interning appends the new aggregates to the existing view's atom list;
- **case (1)** (same group-by, different bodies) is not fused — see
  DESIGN.md "substitutions" — each body stays its own aggregation pass.

Every atom references **at most one incoming view per edge** by
construction. This is the invariant that makes the executor's base join
(relation ⋈ incoming views) sum correctly: partial aggregates are additive
over any extra group-by attributes an incoming view carries, so fan-out
introduced by one incoming view is always summed away by the atoms that
reference it, and no atom joins through a view it does not reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.expr import Factor, Product
from repro.core.join_tree import JoinTree
from repro.core.query import Query


@dataclass(frozen=True)
class Atom:
    """One partial product inside a view.

    ``local`` multiplies the factors evaluated at the view's source node;
    ``refs`` multiply in one partial aggregate from each child view
    (``(view id, atom index)``). SUM(local × refs) over the base join is the
    view's output column for this atom.
    """

    local: Product
    refs: tuple[tuple[int, int], ...]


@dataclass
class ViewDef:
    """A directional view (``target`` set) or a query result (``target`` None).

    ``outputs`` is only populated for query views: the named output columns,
    each summing one or more atoms (a SUM of products decomposes into one
    atom per product).
    """

    vid: int
    source: str
    target: str | None
    group_by: tuple[str, ...]
    incoming: tuple[int, ...]
    atoms: list[Atom] = field(default_factory=list)
    query_name: str | None = None
    outputs: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)

    @property
    def is_query(self) -> bool:
        return self.target is None

    def col(self, atom_idx: int) -> str:
        """Column name of an atom in the materialized view."""
        return f"v{self.vid}_a{atom_idx}"


class ViewRegistry:
    """Interns directional views across the whole batch (Merge Views layer).

    With ``merge=False`` every request creates a fresh view and no atom is
    deduplicated — the "no sharing" ablation used as the AC/DC proxy.
    """

    def __init__(self, merge: bool = True):
        self.views: list[ViewDef] = []
        self._by_key: dict[tuple, int] = {}
        self._atom_idx: dict[int, dict[Atom, int]] = {}
        self.merge = merge

    def get_view(
        self,
        source: str,
        target: str | None,
        group_by: tuple[str, ...],
        incoming: tuple[int, ...],
    ) -> int:
        key = (source, target, group_by, incoming)
        if self.merge and target is not None and key in self._by_key:
            return self._by_key[key]
        vid = len(self.views)
        self.views.append(ViewDef(vid, source, target, group_by, incoming))
        self._by_key[key] = vid
        self._atom_idx[vid] = {}
        return vid

    def add_atom(self, vid: int, atom: Atom) -> int:
        idx_map = self._atom_idx[vid]
        if self.merge and atom in idx_map:
            return idx_map[atom]
        idx = len(self.views[vid].atoms)
        self.views[vid].atoms.append(atom)
        idx_map[atom] = idx
        return idx


def decompose_query(
    query: Query, root: str, tree: JoinTree, registry: ViewRegistry
) -> ViewDef:
    """Decompose ``query`` over ``tree`` rooted at ``root``; returns the query
    view (whose ``incoming`` chain references the interned directional views).
    """
    db = tree.db

    # Enumerate the query's atoms: one per product in each SUM-of-products.
    # atom_key -> (aggregate index, product)
    atom_items: list[tuple[int, Product]] = []
    for ai, agg in enumerate(query.aggregates):
        for p in agg.products:
            atom_items.append((ai, p))

    for attr in query.referenced_attrs:
        if attr not in db.attrs:
            raise KeyError(f"query {query.name} references unknown attr {attr}")

    def rec(
        node: str,
        parent: str | None,
        demands: list[tuple[int, tuple[Factor, ...]]],
        expose: tuple[str, ...],
    ) -> tuple[int, dict[int, int]]:
        """Build the view for edge node->parent, or the query view at the
        root when ``parent`` is None.

        ``demands``: per atom_key, the factors assigned to this subtree.
        ``expose``: the group-by attributes the parent requires (join keys +
        surfaced query group-bys + bubbled factor attributes), or the query's
        group-by at the root.
        Returns the view id and atom_key -> atom-index mapping.
        """
        local_by_atom, child_push, bubble = _split_factors(
            tree, node, parent, demands
        )
        child_views: dict[str, tuple[int, dict[int, int]]] = {}
        children = sorted(c for c in tree.neighbors(node) if c != parent)
        for c in children:
            c_expose = _child_expose(tree, node, parent, c, expose, bubble[c])
            child_views[c] = rec(
                c, node, [(k, tuple(child_push[c][k])) for k, _ in demands], c_expose
            )
        incoming = tuple(child_views[c][0] for c in children)
        vid = registry.get_view(node, parent, expose, incoming)
        atom_map: dict[int, int] = {}
        for k, _ in demands:
            refs = tuple(
                sorted((child_views[c][0], child_views[c][1][k]) for c in children)
            )
            atom_map[k] = registry.add_atom(
                vid, Atom(Product(tuple(local_by_atom[k])), refs)
            )
        return vid, atom_map

    demands = [(k, item[1].factors) for k, item in enumerate(atom_items)]
    vid, atom_idx_of_key = rec(root, None, demands, tuple(query.group_by))
    qview = registry.views[vid]
    qview.query_name = query.name
    for ai, name in enumerate(query.agg_names):
        idxs = tuple(
            atom_idx_of_key[k] for k, (a, _) in enumerate(atom_items) if a == ai
        )
        qview.outputs.append((name, idxs))
    return qview


def _split_factors(
    tree: JoinTree,
    node: str,
    parent: str | None,
    demands: list[tuple[int, tuple[Factor, ...]]],
):
    """Assign each demanded factor: evaluate locally at ``node``, push into
    the unique child subtree containing all its attributes, or evaluate
    locally with attributes bubbled up from child subtrees (spanning case).
    """
    db = tree.db
    omega = db.schema_of(node)
    children = [c for c in tree.neighbors(node) if c != parent]
    local_by_atom: dict[int, list[Factor]] = {k: [] for k, _ in demands}
    child_push: dict[str, dict[int, list[Factor]]] = {
        c: {k: [] for k, _ in demands} for c in children
    }
    bubble: dict[str, set[str]] = {c: set() for c in children}
    for k, factors in demands:
        for f in factors:
            fattrs = set(f.attrs)
            if fattrs <= omega:
                local_by_atom[k].append(f)
                continue
            pushed = False
            for c in children:
                if fattrs <= tree.subtree_attrs(c, node):
                    child_push[c][k].append(f)
                    pushed = True
                    break
            if pushed:
                continue
            # spans node and/or several child subtrees: evaluate here, bubble
            local_by_atom[k].append(f)
            for a in fattrs - omega:
                bubble[tree.home_of(a, node, parent)].add(a)
    return local_by_atom, child_push, bubble


def _child_expose(
    tree: JoinTree,
    node: str,
    parent: str | None,
    child: str,
    expose: tuple[str, ...],
    bubbled: set[str],
) -> tuple[str, ...]:
    """Group-by attributes the child view must surface: the edge's join keys,
    the surfaced attributes that live only below the child, and the bubbled
    factor attributes."""
    omega = tree.db.schema_of(node)
    sub = tree.subtree_attrs(child, node)
    need = {a for a in expose if a in sub and a not in omega} | bubbled
    return tuple(sorted(set(tree.keys(node, child)) | need))
