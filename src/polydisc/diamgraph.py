"""Diameter graphs: extraction, classification, enumeration, structure checks.

The diameter graph of a configuration has an edge for every pair of points
whose distance equals (within tolerance) the largest pairwise distance.
Candidate maximizers are screened against a fixed list of structural
predicates: edge count at most n, minimum degree 1, connectivity, no even
cycle, pairwise intersecting edge segments, convex position, and a graph
class that is either a caterpillar or an odd cycle with pendant vertices.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidConfigError, SingularConfigError
from .geometry import (PointConfig, _convex_position, _distinct, pairwise_distances,
                       upper_pairs)

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
    """Parse ``n=<n>; edges=i-j,...`` (or the compact ``<n>;i-j,...``), 1-based labels."""
    s = text.strip()
    if ";" not in s:
        raise InvalidConfigError(f"malformed graph text: {text!r}")
    head, body = s.split(";", 1)
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


def extract(config: PointConfig, rel_tol: float = 1e-9) -> DiameterGraph:
    """Edges = pairs within relative rel_tol of the largest pairwise distance."""
    return _diameter_graph(pairwise_distances(config.as_complex), rel_tol)


def _diameter_graph(d: np.ndarray, rel_tol: float) -> DiameterGraph:
    """extract from the configuration's distance matrix d."""
    if len(d) < 2:
        raise InvalidConfigError("diameter graph requires n >= 2")
    edges = frozenset(upper_pairs(d >= (1.0 - rel_tol) * d.max()))
    return DiameterGraph(n=len(d), edges=edges)


def _components(graph: DiameterGraph) -> list[set[int]]:
    adj = graph.adjacency()
    seen = [False] * graph.n
    comps = []
    for s in range(graph.n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def is_connected(graph: DiameterGraph) -> bool:
    return len(_components(graph)) <= 1


def _tree_is_caterpillar(graph: DiameterGraph) -> Optional[int]:
    """Spine length if the tree is a caterpillar, else None.

    The spine is what remains after deleting all leaves; a caterpillar is a
    tree whose spine is a path (possibly empty).
    """
    adj = graph.adjacency()
    spine = [v for v in range(graph.n) if len(adj[v]) >= 2]
    if not spine:
        return 0
    spine_set = set(spine)
    deg_in_spine = {v: len(adj[v] & spine_set) for v in spine}
    ends = [v for v in spine if deg_in_spine[v] <= 1]
    if any(d > 2 for d in deg_in_spine.values()):
        return None
    if len(spine) == 1:
        return 1
    if len(ends) != 2:
        return None
    # walk the path from one end and confirm it covers the whole spine
    prev, cur = None, ends[0]
    count = 1
    while True:
        nxt = [w for w in adj[cur] if w in spine_set and w != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        count += 1
    return len(spine) if count == len(spine) else None


def _unique_cycle(graph: DiameterGraph) -> Optional[list[int]]:
    """Vertices of the unique cycle of a connected graph with |E| == n, else None."""
    adj = graph.adjacency()
    deg = {v: len(adj[v]) for v in range(graph.n)}
    alive = set(range(graph.n))
    queue = [v for v in alive if deg[v] <= 1]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for w in adj[v]:
            if w in alive:
                deg[w] -= 1
                if deg[w] <= 1:
                    queue.append(w)
    if not alive:
        return None
    # remaining vertices must induce a single cycle
    if any(len(adj[v] & alive) != 2 for v in alive):
        return None
    start = min(alive)
    cycle = [start]
    prev, cur = None, start
    while True:
        nxt = [w for w in adj[cur] if w in alive and w != prev]
        if not nxt:
            return None
        prev, cur = cur, nxt[0]
        if cur == start:
            break
        cycle.append(cur)
    return cycle if len(cycle) == len(alive) else None


def classify(graph: DiameterGraph) -> GraphClass:
    """Classify an abstract graph by the shapes a maximizer may take."""
    n, m = graph.n, len(graph.edges)
    if n >= 2 and not is_connected(graph):
        return GraphClass(GraphKind.DISCONNECTED)
    if m == n - 1:
        spine = _tree_is_caterpillar(graph)
        if spine is not None:
            return GraphClass(GraphKind.CATERPILLAR, detail=spine)
        return GraphClass(GraphKind.OTHER)
    if m == n:
        cycle = _unique_cycle(graph)
        if cycle is not None and len(cycle) % 2 == 1:
            cyc = set(cycle)
            if all(a in cyc or b in cyc for a, b in graph.edges):
                return GraphClass(GraphKind.ODD_CYCLE_WITH_PENDANTS, detail=len(cycle))
        return GraphClass(GraphKind.OTHER)
    return GraphClass(GraphKind.OTHER)


def _biconnected_blocks(graph: DiameterGraph):
    """Edge sets of the biconnected components (iterative lowpoint DFS)."""
    adj = graph.adjacency()
    visited = [False] * graph.n
    depth = [0] * graph.n
    low = [0] * graph.n
    blocks = []
    for root in range(graph.n):
        if visited[root] or not adj[root]:
            continue
        stack = [(root, None, iter(sorted(adj[root])))]
        edge_stack = []
        visited[root] = True
        depth[root] = low[root] = 0
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
                    if block:
                        blocks.append(block)
    return blocks


def has_even_cycle(graph: DiameterGraph) -> bool:
    """True iff some cycle of the graph has even length.

    A graph is even-cycle-free exactly when every biconnected block is a
    single edge or an odd cycle.
    """
    for block in _biconnected_blocks(graph):
        verts = {v for e in block for v in e}
        if len(block) == 1:
            continue
        if len(block) == len(verts) and len(verts) % 2 == 1:
            continue
        return True
    return False


def _on_segment(p, q, r, eps):
    # r collinear with pq assumed; check r within the bounding box of pq
    return (min(p[0], q[0]) - eps <= r[0] <= max(p[0], q[0]) + eps
            and min(p[1], q[1]) - eps <= r[1] <= max(p[1], q[1]) + eps)


def _segments_meet_once(p1, p2, p3, p4, d1, d2, d3, d4, eps_len):
    """True iff segments p1p2 and p3p4 intersect in exactly one point.

    d1, d2 are the orientation signs of p1, p2 against the line p3p4, and d3,
    d4 those of p3, p4 against p1p2; at least one of them is zero (a proper
    crossing, with four nonzero signs, is decided by the caller).
    """
    if d1 == d2 == d3 == d4 == 0:
        # collinear: meeting at a single point (shared endpoint) is fine,
        # positive-length overlap and disjointness are not
        axis = 0 if abs(p2[0] - p1[0]) >= abs(p2[1] - p1[1]) else 1
        a1, a2 = sorted((p1[axis], p2[axis]))
        b1, b2 = sorted((p3[axis], p4[axis]))
        lo, hi = max(a1, b1), min(a2, b2)
        return abs(hi - lo) <= eps_len
    # touching configurations: exactly-one-point contact
    if d1 == 0 and _on_segment(p3, p4, p1, eps_len):
        return True
    if d2 == 0 and _on_segment(p3, p4, p2, eps_len):
        return True
    if d3 == 0 and _on_segment(p1, p2, p3, eps_len):
        return True
    if d4 == 0 and _on_segment(p1, p2, p4, eps_len):
        return True
    return False


# entries of one temporary array in the intersection screen (2 MB of float64)
_BLOCK_ENTRIES = 1 << 18


def _orientation_signs(pts: np.ndarray, a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """(m, n) int8 side of point j against edge a[k] -> b[k]: +1 where the
    cross product (b - a) x (p_j - a) exceeds eps, -1 where it is below -eps,
    else 0."""
    x, y = pts[:, 0], pts[:, 1]
    signs = np.empty((len(a), len(pts)), dtype=np.int8)
    rows = max(1, _BLOCK_ENTRIES // len(pts))
    for lo in range(0, len(a), rows):
        p, q = a[lo:lo + rows, None], b[lo:lo + rows, None]
        v = (x[q] - x[p]) * (y - y[p]) - (y[q] - y[p]) * (x - x[p])
        block = signs[lo:lo + rows]
        block[...] = v > eps
        block -= v < -eps
    return signs


def check_pairwise_intersection(config: PointConfig, graph: DiameterGraph) -> bool:
    """True iff every two edge segments meet in exactly one point.

    Shared endpoints count as one intersection; collinear positive-length
    overlap and disjointness both fail.
    """
    return _pairwise_intersecting(config.points, pairwise_distances(config.as_complex), graph)


def _pairwise_intersecting(pts: np.ndarray, d: np.ndarray, graph: DiameterGraph) -> bool:
    """check_pairwise_intersection from the points and their distance matrix d."""
    if not _distinct(d):
        raise SingularConfigError("coincident points")
    edges = sorted(graph.edges)
    m = len(edges)
    if m < 2:
        return True
    scale = float(d.max())
    eps_len = 1e-9 * scale
    a, b = np.array(edges).T
    signs = _orientation_signs(pts, a, b, 1e-9 * scale ** 2)
    # edge e = (a[e], b[e]) against every later edge f, a block of e at a time:
    # d1, d2 are the signs of e's ends against f, d3, d4 of f's ends against e
    rows = max(1, _BLOCK_ENTRIES // m)
    for lo in range(0, m - 1, rows):
        hi = min(lo + rows, m)
        d1 = signs[lo:, a[lo:hi]].T
        d2 = signs[lo:, b[lo:hi]].T
        d3 = signs[lo:hi, a[lo:]]
        d4 = signs[lo:hi, b[lo:]]
        later = np.arange(lo, m) > np.arange(lo, hi)[:, None]
        zero_sign = later & ((d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0))
        if (later & ~zero_sign & ((d1 == d2) | (d3 == d4))).any():
            return False
        # edges with a common endpoint meet there only, unless they are
        # collinear: that point's sign against the other edge is exactly 0,
        # and it lies on the other edge
        ea, eb, fa, fb = a[lo:hi, None], b[lo:hi, None], a[lo:], b[lo:]
        shared = (ea == fa) | (ea == fb) | (eb == fa) | (eb == fb)
        collinear = (d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0)
        for i, j in zip(*np.nonzero(zero_sign & (collinear | ~shared))):
            e, f = lo + i, lo + j
            if not _segments_meet_once(pts[a[e]], pts[b[e]], pts[a[f]], pts[b[f]],
                                       d1[i, j], d2[i, j], d3[i, j], d4[i, j], eps_len):
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


def _caterpillar_from_counts(counts: tuple[int, ...], n: int) -> DiameterGraph:
    s = len(counts)
    edges = {(i, i + 1) for i in range(s - 1)}
    nxt = s
    for i, c in enumerate(counts):
        for _ in range(c):
            edges.add((i, nxt))
            nxt += 1
    assert nxt == n
    return DiameterGraph(n=n, edges=frozenset(edges))


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
            out.append(_caterpillar_from_counts(key, n))
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
            edges = {(i, (i + 1) % k) for i in range(k)}
            nxt = k
            for i, c in enumerate(key):
                for _ in range(c):
                    edges.add((i, nxt))
                    nxt += 1
            out.append(DiameterGraph(n=n, edges=frozenset(edges)))
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
    d = pairwise_distances(config.as_complex)
    graph = _diameter_graph(d, rel_tol)
    gclass = classify(graph)
    return StructureReport(
        edge_count_ok=len(graph.edges) <= graph.n,
        min_degree_ok=min(graph.degrees()) >= 1 if graph.n else True,
        connected=is_connected(graph),
        no_even_cycle=not has_even_cycle(graph),
        pairwise_intersecting=_pairwise_intersecting(config.points, d, graph),
        convex_position=_convex_position(config.points, d) if config.n >= 3 else True,
        class_ok=gclass.kind in (GraphKind.CATERPILLAR, GraphKind.ODD_CYCLE_WITH_PENDANTS),
        graph=graph,
        graph_class=gclass,
    )
