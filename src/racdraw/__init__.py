"""Six-bend right-angle-crossing drawings on an integer grid.

Public surface: the layout engine (place vertices, route edges, draw whole
graphs), the exact validator (certify the right-angle property, enumerate
crossings, measure the grid box), and I/O (edge lists, JSON documents,
SVG).
"""

from .layout import (
    GraphInput,
    draw_complete,
    draw_graph,
    first_bend_index,
    params_from_n,
    vertex_slot,
)
from .model import (
    CrossingReport,
    Defect,
    DefectKind,
    Drawing,
    ceil_fourth_root,
)
from .io import (
    DerivedFieldError,
    DocumentError,
    DuplicateEdgeError,
    EdgeListError,
    IntegerTooLongError,
    MalformedLineError,
    MissingHeaderError,
    NonIntegerCoordinateError,
    SelfLoopError,
    VertexRangeError,
    dumps_drawing,
    loads_drawing,
    parse_edge_list,
    read_drawing,
    serialize_edge_list,
    write_drawing,
)
from .svg import SvgOptions, render_svg
from .validator import (
    StatsReport,
    ValidationMode,
    bounding_box,
    segment_pair,
    stats,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "CrossingReport",
    "Defect",
    "DefectKind",
    "DerivedFieldError",
    "DocumentError",
    "Drawing",
    "DuplicateEdgeError",
    "EdgeListError",
    "GraphInput",
    "IntegerTooLongError",
    "MalformedLineError",
    "MissingHeaderError",
    "NonIntegerCoordinateError",
    "SelfLoopError",
    "StatsReport",
    "SvgOptions",
    "ValidationMode",
    "VertexRangeError",
    "bounding_box",
    "ceil_fourth_root",
    "draw_complete",
    "draw_graph",
    "dumps_drawing",
    "first_bend_index",
    "loads_drawing",
    "params_from_n",
    "parse_edge_list",
    "read_drawing",
    "render_svg",
    "segment_pair",
    "serialize_edge_list",
    "stats",
    "validate",
    "vertex_slot",
    "write_drawing",
]
