"""Octree geometry + a sequential reference Barnes-Hut implementation.

The hierarchical octree is the paper's "main data structure": the root
represents a space cell containing all bodies; a cell is subdivided into
its eight children as soon as it contains more than a single body, so the
leaves are individual bodies and the tree is adaptive.

This module holds the purely geometric rules (octant selection, child
cells) shared by the distributed application and the **sequential
reference** implementation used to validate it: both build the identical
tree (the shape of the adaptive octree is a function of the body positions
and the root box only, independent of insertion order) and traverse it in
identical child order, so the distributed run must reproduce the reference
accelerations bit-for-bit up to float associativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .physics import EPS, THETA, BodyState, Vec, pairwise_force

__all__ = [
    "octant",
    "child_center",
    "bounding_cube",
    "MAX_DEPTH",
    "RefNode",
    "build_reference_tree",
    "reference_forces",
]

#: Safety bound on tree depth (identical positions would otherwise recurse
#: forever; Plummer spheres never get close at the sizes we simulate).
MAX_DEPTH = 64


def octant(center: Vec, pos: Vec) -> int:
    """Index (0..7) of the child octant of ``center`` containing ``pos``.
    Bit 0: x >= cx, bit 1: y >= cy, bit 2: z >= cz."""
    o = 0
    if pos[0] >= center[0]:
        o |= 1
    if pos[1] >= center[1]:
        o |= 2
    if pos[2] >= center[2]:
        o |= 4
    return o


def child_center(center: Vec, half: float, oct_idx: int) -> Vec:
    """Center of the given child octant of a cell with half-size ``half``."""
    q = half / 2.0
    return (
        center[0] + (q if oct_idx & 1 else -q),
        center[1] + (q if oct_idx & 2 else -q),
        center[2] + (q if oct_idx & 4 else -q),
    )


def bounding_cube(positions: Sequence[Vec]) -> Tuple[Vec, float]:
    """Smallest axis-aligned cube (center, half-size) containing all
    positions, padded slightly so nothing sits exactly on a face."""
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    zs = [p[2] for p in positions]
    lo = (min(xs), min(ys), min(zs))
    hi = (max(xs), max(ys), max(zs))
    center = ((lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0, (lo[2] + hi[2]) / 2.0)
    half = max(hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]) / 2.0
    half = half * 1.0001 + 1e-9
    return center, half


# ------------------------------------------------------------ reference tree
@dataclass
class RefNode:
    """Sequential reference cell."""

    center: Vec
    half: float
    depth: int
    children: List[Optional[object]] = field(default_factory=lambda: [None] * 8)
    mass: float = 0.0
    com: Vec = (0.0, 0.0, 0.0)


def build_reference_tree(bodies: Sequence[BodyState], box: Optional[Tuple[Vec, float]] = None) -> RefNode:
    """Build the adaptive octree (one body per leaf) and fill in the
    centers of mass bottom-up."""
    if box is None:
        box = bounding_cube([b.pos for b in bodies])
    root = RefNode(center=box[0], half=box[1], depth=0)
    for idx, b in enumerate(bodies):
        _insert(root, idx, b, bodies)
    _summarize(root, bodies)
    return root


def _insert(cell: RefNode, idx: int, b: BodyState, bodies: Sequence[BodyState]) -> None:
    o = octant(cell.center, b.pos)
    child = cell.children[o]
    if child is None:
        cell.children[o] = idx  # leaf: body index
        return
    if isinstance(child, RefNode):
        _insert(child, idx, b, bodies)
        return
    # Occupied by another body: split until they separate.
    if cell.depth + 1 > MAX_DEPTH:
        raise RuntimeError("octree exceeded MAX_DEPTH; coincident bodies?")
    other = child
    sub = RefNode(center=child_center(cell.center, cell.half, o), half=cell.half / 2.0, depth=cell.depth + 1)
    cell.children[o] = sub
    _insert(sub, other, bodies[other], bodies)
    _insert(sub, idx, b, bodies)


def _summarize(cell: RefNode, bodies: Sequence[BodyState]) -> Tuple[float, Vec]:
    m = 0.0
    cx = cy = cz = 0.0
    for child in cell.children:
        if child is None:
            continue
        if isinstance(child, RefNode):
            cm, cc = _summarize(child, bodies)
        else:
            b = bodies[child]
            cm, cc = b.mass, b.pos
        m += cm
        cx += cm * cc[0]
        cy += cm * cc[1]
        cz += cm * cc[2]
    if m > 0.0:
        cell.mass = m
        cell.com = (cx / m, cy / m, cz / m)
    return cell.mass, cell.com


def reference_forces(
    bodies: Sequence[BodyState],
    theta: float = THETA,
    eps: float = EPS,
    box: Optional[Tuple[Vec, float]] = None,
) -> Tuple[List[Vec], List[int]]:
    """Sequential Barnes-Hut accelerations + per-body interaction counts.

    The traversal accepts a cell when its side (2*half) is smaller than
    ``theta`` times the distance to its center of mass -- the same
    multipole acceptance criterion the distributed application uses, in the
    same child order, so results agree bit-for-bit.
    """
    root = build_reference_tree(bodies, box)
    accs: List[Vec] = []
    counts: List[int] = []
    for idx, b in enumerate(bodies):
        ax = ay = az = 0.0
        n_inter = 0
        stack: List[object] = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, RefNode):
                dx = node.com[0] - b.pos[0]
                dy = node.com[1] - b.pos[1]
                dz = node.com[2] - b.pos[2]
                dist = math.sqrt(dx * dx + dy * dy + dz * dz)
                if 2.0 * node.half < theta * dist:
                    fx, fy, fz = pairwise_force(b.pos, node.mass, node.com, eps)
                    ax += fx
                    ay += fy
                    az += fz
                    n_inter += 1
                else:
                    for child in reversed(node.children):
                        if child is not None:
                            stack.append(child)
            else:
                if node == idx:
                    continue
                ob = bodies[node]
                fx, fy, fz = pairwise_force(b.pos, ob.mass, ob.pos, eps)
                ax += fx
                ay += fy
                az += fz
                n_inter += 1
        accs.append((ax, ay, az))
        counts.append(n_inter)
    return accs, counts
