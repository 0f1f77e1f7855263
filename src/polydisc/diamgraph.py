"""Diameter graphs: extraction, classification, enumeration, structure checks.

The diameter graph of a configuration has an edge for every pair of points
whose distance equals (within tolerance) the largest pairwise distance.
Candidate maximizers are screened against a fixed list of structural
predicates: edge count at most n, minimum degree 1, connectivity, no even
cycle, pairwise intersecting edge segments, convex position, and a graph
class that is either a caterpillar or an odd cycle with pendant vertices.
One depth-first search, the block decomposition, answers connectivity,
cycle parity and the graph class.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidConfigError
from .geometry import (_TOL, PointConfig, _convex_position, _distinct_pairs, _memo,
                       _pair_rows, _row_blocks, _unit_scaled)

Edge = tuple[int, int]


class GraphKind(str, enum.Enum):
    CATERPILLAR = "Caterpillar"
    ODD_CYCLE_WITH_PENDANTS = "OddCycleWithPendants"
    DISCONNECTED = "Disconnected"
    OTHER = "Other"


@dataclass(frozen=True)
class GraphClass:
    kind: GraphKind
    # cycle length for odd-cycle graphs, spine length for caterpillars
    detail: Optional[int] = None


@dataclass(frozen=True)
class DiameterGraph:
    """Vertex count plus an edge set of (sorted) index pairs."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise InvalidConfigError(f"negative vertex count {self.n}")
        norm = frozenset((min(a, b), max(a, b)) for a, b in self.edges)
        for a, b in norm:
            if not (0 <= a < b < self.n):
                raise InvalidConfigError(f"edge ({a},{b}) out of range for n={self.n}")
        object.__setattr__(self, "edges", norm)

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def degrees(self) -> list[int]:
        return [len(s) for s in self.adjacency()]

    def to_text(self) -> str:
        """One-line interchange form ``n=<n>; edges=i-j,...`` with 1-based labels."""
        body = ",".join(f"{a + 1}-{b + 1}" for a, b in sorted(self.edges))
        return f"n={self.n}; edges={body}"


def parse_graph_text(text: str) -> DiameterGraph:
    """Parse ``n=<n>; edges=i-j,...`` (or the compact ``<n>;i-j,...``), 1-based labels.

    Raises InvalidConfigError, naming the text, on any malformed text.
    """
    try:
        head, body = text.strip().split(";", 1)
        head = head.strip()
        if head.startswith("n="):
            head = head[2:]
        n = int(head)
        body = body.strip()
        if body.startswith("edges="):
            body = body[len("edges="):]
        edges = set()
        body = body.strip()
        if body:
            for item in body.split(","):
                a, b = item.strip().split("-")
                edges.add((int(a) - 1, int(b) - 1))
        return DiameterGraph(n=n, edges=frozenset(edges))
    except ValueError as exc:  # InvalidConfigError included
        raise InvalidConfigError(f"malformed graph text {text!r}: {exc}") from None


def extract(config: PointConfig, rel_tol: float = 1e-9) -> DiameterGraph:
    """Edges = pairs within relative rel_tol of the largest pairwise distance."""
    return _diameter_graph(config, rel_tol)[0]


def _diameter_graph(config: PointConfig, rel_tol: float, distinct: bool = False):
    """extract, and the reductions of the pairs that gave the edges: config's
    memo at _TOL, else a pass of its own, as also for edges the memo does
    not keep.  With ``distinct``, coincident points are rejected first."""
    if config.n < 2:
        raise InvalidConfigError("diameter graph requires n >= 2")
    if rel_tol == _TOL:
        found = _memo(config, distinct=distinct)
        edges = found.edges
        if edges is None:  # more than n, not kept on the memo
            edges = _pair_rows(config.as_complex, edges=_TOL).edges
    else:
        found = (_distinct_pairs if distinct else _pair_rows)(config.as_complex, edges=rel_tol)
        edges = found.edges
    return DiameterGraph(n=config.n, edges=frozenset(edges)), found


def _blocks(graph: DiameterGraph) -> tuple[int, list[list[Edge]]]:
    """Component count and the edge lists of the biconnected blocks.

    One iterative lowpoint depth-first search (Hopcroft & Tarjan, 1973):
    every vertex not reached from an earlier root starts a new component,
    isolated vertices included.
    """
    adj = graph.adjacency()
    visited = [False] * graph.n
    depth = [0] * graph.n
    low = [0] * graph.n
    components = 0
    blocks = []
    for root in range(graph.n):
        if visited[root]:
            continue
        components += 1
        visited[root] = True
        stack = [(root, None, iter(sorted(adj[root])))]
        edge_stack = []
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if not visited[w]:
                    visited[w] = True
                    depth[w] = low[w] = depth[v] + 1
                    edge_stack.append((v, w))
                    stack.append((w, v, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if depth[w] < depth[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], depth[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= depth[u]:
                    block = []
                    while edge_stack:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == (u, v):
                            break
                    blocks.append(block)
    return components, blocks


def is_connected(graph: DiameterGraph) -> bool:
    return _blocks(graph)[0] <= 1


def has_even_cycle(graph: DiameterGraph) -> bool:
    """True iff some cycle of the graph has even length."""
    return _blocks_have_even_cycle(_blocks(graph)[1])


def _blocks_have_even_cycle(blocks: list[list[Edge]]) -> bool:
    """True iff some block holds an even cycle.

    A graph is even-cycle-free exactly when every biconnected block is a
    single edge or an odd cycle; a block with as many vertices as edges is a
    cycle.
    """
    for block in blocks:
        if len(block) > 1 and (len(block) % 2 == 0
                               or len(block) != len({v for e in block for v in e})):
            return True
    return False


def _tree_is_caterpillar(graph: DiameterGraph) -> Optional[int]:
    """Spine length if the tree is a caterpillar, else None.

    The spine is what remains after deleting all leaves; a caterpillar is a
    tree whose spine is a path (possibly empty).  The spine of a tree is
    itself a tree, so it is a path exactly when no spine vertex has more
    than two spine neighbours.
    """
    adj = graph.adjacency()
    spine = {v for v in range(graph.n) if len(adj[v]) >= 2}
    if any(len(adj[v] & spine) > 2 for v in spine):
        return None
    return len(spine)


def classify(graph: DiameterGraph) -> GraphClass:
    """Classify an abstract graph by the shapes a maximizer may take."""
    return _classify(graph, *_blocks(graph))


def _classify(graph: DiameterGraph, components: int, blocks: list[list[Edge]]) -> GraphClass:
    """classify from the graph's component count and biconnected blocks."""
    n, m = graph.n, len(graph.edges)
    if n >= 2 and components > 1:
        return GraphClass(GraphKind.DISCONNECTED)
    if m == n - 1:
        spine = _tree_is_caterpillar(graph)
        if spine is not None:
            return GraphClass(GraphKind.CATERPILLAR, detail=spine)
        return GraphClass(GraphKind.OTHER)
    # a connected graph with m = n has one cycle: its only block of more
    # than one edge, with as many edges as vertices
    cycles = [block for block in blocks if len(block) > 1]
    if m == n and len(cycles) == 1 and len(cycles[0]) % 2 == 1:
        cyc = {v for e in cycles[0] for v in e}
        if all(a in cyc or b in cyc for a, b in graph.edges):
            return GraphClass(GraphKind.ODD_CYCLE_WITH_PENDANTS, detail=len(cycles[0]))
    return GraphClass(GraphKind.OTHER)


def _orientation_signs(pts: np.ndarray, a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """(m, n) int8 side of point j against edge a[k] -> b[k]: +1 where the
    cross product (b - a) x (p_j - a) exceeds eps, -1 where it is below -eps,
    else 0."""
    x, y = pts[:, 0], pts[:, 1]
    signs = np.empty((len(a), len(pts)), dtype=np.int8)
    for rows in _row_blocks(len(a), len(pts)):
        p, q = a[rows, None], b[rows, None]
        v = (x[q] - x[p]) * (y - y[p]) - (y[q] - y[p]) * (x - x[p])
        block = signs[rows]
        block[...] = v > eps
        block -= v < -eps
    return signs


def _degenerate_meet_once(p1, p2, p3, p4, d1, d2, d3, d4, collinear, eps_len):
    """Per pair of segments p1p2 and p3p4 (rows of (k, 2) arrays) with a zero
    orientation sign: True where they meet in exactly one point.

    d1, d2 are the signs of p1, p2 against the line p3p4, and d3, d4 those of
    p3, p4 against p1p2; ``collinear`` marks the pairs whose four signs are
    zero.  Such a pair may overlap along p1p2's dominant axis by at most
    eps_len, a single shared point; positive-length overlap and disjointness
    both fail.  Any other pair needs an end of sign zero inside the other
    segment's bounding box, grown by eps_len on every side.
    """
    def in_box(p, q, r):
        return ((np.minimum(p, q) - eps_len <= r) & (r <= np.maximum(p, q) + eps_len)).all(axis=1)

    contact = (((d1 == 0) & in_box(p3, p4, p1)) | ((d2 == 0) & in_box(p3, p4, p2))
               | ((d3 == 0) & in_box(p1, p2, p3)) | ((d4 == 0) & in_box(p1, p2, p4)))
    on_y = np.abs(p2[:, 0] - p1[:, 0]) < np.abs(p2[:, 1] - p1[:, 1])
    u1, u2, u3, u4 = (np.where(on_y, p[:, 1], p[:, 0]) for p in (p1, p2, p3, p4))
    overlap = (np.minimum(np.maximum(u1, u2), np.maximum(u3, u4))
               - np.maximum(np.minimum(u1, u2), np.minimum(u3, u4)))
    return np.where(collinear, np.abs(overlap) <= eps_len, contact)


def check_pairwise_intersection(config: PointConfig, graph: DiameterGraph) -> bool:
    """True iff every two edge segments meet in exactly one point.

    Shared endpoints count as one intersection; collinear positive-length
    overlap and disjointness both fail.
    """
    diam = _memo(config, distinct=True).diameter
    return _pairwise_intersecting(config.points, diam, graph)


def _pairwise_intersecting(pts: np.ndarray, diam: float, graph: DiameterGraph) -> bool:
    """check_pairwise_intersection from distinct points and their diameter."""
    edges = sorted(graph.edges)
    m = len(edges)
    if m < 2:
        return True
    pts, scale = _unit_scaled(pts, diam)
    eps_len = 1e-9 * scale
    a, b = np.array(edges).T
    signs = _orientation_signs(pts, a, b, 1e-9 * scale ** 2)
    # edge e = (a[e], b[e]) against every later edge f, a block of e at a time:
    # d1, d2 are the signs of e's ends against f, d3, d4 of f's ends against e
    for rows in _row_blocks(m - 1, m):
        lo = rows.start
        d1 = signs[lo:, a[rows]].T
        d2 = signs[lo:, b[rows]].T
        d3 = signs[rows, a[lo:]]
        d4 = signs[rows, b[lo:]]
        later = np.arange(lo, m) > np.arange(lo, rows.stop)[:, None]
        zero_sign = later & ((d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0))
        if (later & ~zero_sign & ((d1 == d2) | (d3 == d4))).any():
            return False
        # edges with a common endpoint meet there only, unless they are
        # collinear: that point's sign against the other edge is exactly 0,
        # and it lies on the other edge
        ea, eb, fa, fb = a[rows, None], b[rows, None], a[lo:], b[lo:]
        shared = (ea == fa) | (ea == fb) | (eb == fa) | (eb == fb)
        collinear = (d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0)
        i, j = np.divmod(np.flatnonzero(zero_sign & (collinear | ~shared)), m - lo)
        e, f = lo + i, lo + j
        if not _degenerate_meet_once(pts[a[e]], pts[b[e]], pts[a[f]], pts[b[f]],
                                     d1[i, j], d2[i, j], d3[i, j], d4[i, j],
                                     collinear[i, j], eps_len).all():
            return False
    return True


def caterpillar_count(n: int) -> int:
    """Closed-form number of caterpillar trees on n >= 3 vertices."""
    if n < 2:
        raise InvalidConfigError("need n >= 2")
    if n == 2:
        return 1
    if n == 3:
        return 1
    return 2 ** (n - 4) + 2 ** (n // 2 - 2)


def _with_pendants(edges: set, counts: tuple[int, ...]) -> DiameterGraph:
    """edges on vertices 0..len(counts)-1 plus counts[i] pendant vertices at
    vertex i, numbered from len(counts) on, vertex by vertex."""
    owners = [i for i, c in enumerate(counts) for _ in range(c)]
    edges = edges | {(i, len(counts) + j) for j, i in enumerate(owners)}
    return DiameterGraph(n=len(counts) + len(owners), edges=frozenset(edges))


def enumerate_caterpillars(n: int) -> list[DiameterGraph]:
    """All caterpillar isomorphism classes on n vertices, no duplicates.

    Canonical form: the tuple of leaf counts along the spine (the tree minus
    its leaves), up to reversal. Spine endpoints carry at least one leaf.
    """
    if n < 2:
        raise InvalidConfigError("need n >= 2")
    if n == 2:
        return [DiameterGraph(n=2, edges=frozenset({(0, 1)}))]
    seen = set()
    out = []
    for s in range(1, n - 1):
        total = n - s
        if s == 1:
            combos = [(total,)] if total >= 2 else []
        else:
            combos = []
            for mid in itertools.product(range(total + 1), repeat=s - 2):
                rem = total - sum(mid)
                if rem < 2:
                    continue
                for first in range(1, rem):
                    last = rem - first
                    if last >= 1:
                        combos.append((first,) + mid + (last,))
        for counts in combos:
            key = min(counts, counts[::-1])
            if key in seen:
                continue
            seen.add(key)
            out.append(_with_pendants({(i, i + 1) for i in range(s - 1)}, key))
    return out


def _necklace_canon(counts: tuple[int, ...]) -> tuple[int, ...]:
    k = len(counts)
    best = None
    for seq in (counts, counts[::-1]):
        for r in range(k):
            cand = seq[r:] + seq[:r]
            if best is None or cand < best:
                best = cand
    return best


def enumerate_unicyclic_candidates(n: int) -> list[DiameterGraph]:
    """Odd cycles with pendant vertices attached, n vertices and n edges.

    Canonical form: cycle length plus the sequence of per-vertex pendant
    counts around the cycle, up to rotation and reflection.
    """
    if n < 3:
        raise InvalidConfigError("need n >= 3")
    out = []
    for k in range(3, n + 1, 2):
        pendants = n - k
        seen = set()
        for counts in itertools.product(range(pendants + 1), repeat=k):
            if sum(counts) != pendants:
                continue
            key = _necklace_canon(counts)
            if key in seen:
                continue
            seen.add(key)
            out.append(_with_pendants({(i, (i + 1) % k) for i in range(k)}, key))
    return out


def conjectured_even_graph(n: int) -> DiameterGraph:
    """Cycle C_{n-3} with three pendant edges; equally spaced when 6 | n.

    For other even n the pendant positions floor(k (n-3) / 3), k = 0, 1, 2
    are a recorded heuristic, not a claim.
    """
    if n % 2 != 0 or n < 6:
        raise InvalidConfigError("need even n >= 6")
    k = n - 3
    edges = {(i, (i + 1) % k) for i in range(k)}
    for t in range(3):
        pos = (t * k) // 3
        edges.add((pos, k + t))
    return DiameterGraph(n=n, edges=frozenset(edges))


@dataclass(frozen=True)
class StructureReport:
    """Boolean screen of one configuration against the maximizer predicates."""

    edge_count_ok: bool
    min_degree_ok: bool
    connected: bool
    no_even_cycle: bool
    pairwise_intersecting: bool
    convex_position: bool
    class_ok: bool
    graph: DiameterGraph
    graph_class: GraphClass

    @property
    def all_ok(self) -> bool:
        return (self.edge_count_ok and self.min_degree_ok and self.connected
                and self.no_even_cycle and self.pairwise_intersecting
                and self.convex_position and self.class_ok)

    def flags(self) -> dict[str, bool]:
        return {
            "edge_count_ok": self.edge_count_ok,
            "min_degree_ok": self.min_degree_ok,
            "connected": self.connected,
            "no_even_cycle": self.no_even_cycle,
            "pairwise_intersecting": self.pairwise_intersecting,
            "convex_position": self.convex_position,
            "class_ok": self.class_ok,
        }


def maximizer_structure_report(config: PointConfig, rel_tol: float = 1e-9) -> StructureReport:
    """Evaluate every structural predicate a maximizer must satisfy."""
    graph, found = _diameter_graph(config, rel_tol, distinct=True)
    components, blocks = _blocks(graph)
    gclass = _classify(graph, components, blocks)
    return StructureReport(
        edge_count_ok=len(graph.edges) <= graph.n,
        min_degree_ok=min(graph.degrees()) >= 1 if graph.n else True,
        connected=components <= 1,
        no_even_cycle=not _blocks_have_even_cycle(blocks),
        pairwise_intersecting=_pairwise_intersecting(config.points, found.diameter, graph),
        convex_position=(_convex_position(config.points, found.diameter)
                         if config.n >= 3 else True),
        class_ok=gclass.kind in (GraphKind.CATERPILLAR, GraphKind.ODD_CYCLE_WITH_PENDANTS),
        graph=graph,
        graph_class=gclass,
    )
