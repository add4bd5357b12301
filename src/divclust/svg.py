"""Static SVG rendering of dendrograms.

Leaves sit evenly spaced along the bottom in tree order; junction heights
are proportional to node levels, so monotone levels guarantee that no
branch crosses another.
"""

from __future__ import annotations

from .hierarchy import Dendrogram

_LEAF_SPACING = 44.0
_PLOT_HEIGHT = 320.0
_MARGIN = 40.0
_LABEL_GAP = 16.0


def dendrogram_svg(tree: Dendrogram) -> str:
    """Render a dendrogram as a standalone SVG document."""
    leaf_order = [nid for nid in tree.preorder if tree.nodes[nid].is_leaf]
    leaf_x = {nid: _MARGIN + rank * _LEAF_SPACING for rank, nid in enumerate(leaf_order)}

    top = tree.root.level
    scale = _PLOT_HEIGHT / top if top > 0.0 else 0.0

    def y_of(level: float) -> float:
        return _MARGIN + (top - level) * scale

    # junctions sit midway between their children; reversed preorder places
    # every child before its parent
    x_of: dict[int, float] = dict(leaf_x)
    for nid in reversed(tree.preorder):
        if not tree.nodes[nid].is_leaf:
            ca, cb = tree.nodes[nid].children
            x_of[nid] = (x_of[ca] + x_of[cb]) / 2.0
    width = 2 * _MARGIN + (len(leaf_order) - 1) * _LEAF_SPACING
    height = _MARGIN + _PLOT_HEIGHT + _LABEL_GAP + _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<g fill="none" stroke="#222" stroke-width="1.5">',
    ]
    for node in tree.nodes:
        if node.is_leaf:
            continue
        ca, cb = node.children
        xl, xr = x_of[ca], x_of[cb]
        yn = y_of(node.level)
        yl = y_of(tree.nodes[ca].level)
        yr = y_of(tree.nodes[cb].level)
        parts.append(
            f'<path d="M {xl:.2f} {yl:.2f} V {yn:.2f} H {xr:.2f} V {yr:.2f}"/>'
        )
    parts.append("</g>")
    parts.append('<g font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">')
    baseline = _MARGIN + _PLOT_HEIGHT + _LABEL_GAP
    for nid in leaf_order:
        label = f"o{tree.nodes[nid].members[0] + 1}"
        parts.append(f'<text x="{leaf_x[nid]:.2f}" y="{baseline:.2f}">{label}</text>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
