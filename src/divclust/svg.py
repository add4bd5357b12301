"""Static SVG rendering of dendrograms.

Leaves sit evenly spaced along the bottom in tree order; junction heights
are proportional to node levels, so monotone levels guarantee that no
branch crosses another.
"""

from __future__ import annotations

from .core import _into_window
from .hierarchy import Dendrogram

_LEAF_SPACING = 44.0
_PLOT_HEIGHT = 320.0
_MARGIN = 40.0
_LABEL_GAP = 16.0


def dendrogram_svg(tree: Dendrogram) -> str:
    """Render a dendrogram as a standalone SVG document."""
    kids, start = tree.children.tolist(), tree.start.tolist()
    # the drawing reads only level ratios, which an exact power-of-two scale
    # keeps; unscaled, a root level below about 1.8e-306 overflows the scale
    levels = _into_window(tree.levels)[0].tolist()
    top = levels[tree.preorder[0]]
    scale = _PLOT_HEIGHT / top if top > 0.0 else 0.0

    def y_of(level: float) -> float:
        return _MARGIN + (top - level) * scale

    # a leaf sits at its rank in the leaf order, a junction midway between
    # its children; reversed preorder places every child before its parent
    x_of = [0.0] * len(kids)
    for nid in reversed(tree.preorder):
        ca, cb = kids[nid]
        x_of[nid] = _MARGIN + start[nid] * _LEAF_SPACING if ca < 0 else (x_of[ca] + x_of[cb]) / 2.0
    width = 2 * _MARGIN + (tree.n - 1) * _LEAF_SPACING
    height = _MARGIN + _PLOT_HEIGHT + _LABEL_GAP + _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<g fill="none" stroke="#222" stroke-width="1.5">',
    ]
    for (ca, cb), level in zip(kids, levels):
        if ca < 0:
            continue
        xl, xr = x_of[ca], x_of[cb]
        yn = y_of(level)
        yl = y_of(levels[ca])
        yr = y_of(levels[cb])
        parts.append(
            f'<path d="M {xl:.2f} {yl:.2f} V {yn:.2f} H {xr:.2f} V {yr:.2f}"/>'
        )
    parts.append("</g>")
    parts.append('<g font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">')
    baseline = _MARGIN + _PLOT_HEIGHT + _LABEL_GAP
    for rank, obj in enumerate(tree.order.tolist()):
        x = _MARGIN + rank * _LEAF_SPACING
        parts.append(f'<text x="{x:.2f}" y="{baseline:.2f}">o{obj + 1}</text>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
