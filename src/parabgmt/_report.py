"""The one JSON walker and CSV writer behind every report, and the base of the result records."""

import dataclasses

import numpy as np

from .geometry import ParaPoint


def jsonable(obj, digits=None):
    """obj as plain JSON values: dicts with str keys, lists, str, int,
    float, bool and None.

    numpy scalars and arrays become Python numbers and lists, a ParaPoint
    its coordinate list, and any object with a to_dict() (records,
    HomPlane) that dict.  With digits set, every float is rounded to that
    many significant digits.  Other objects raise TypeError.
    """
    if isinstance(obj, (float, np.floating)):
        return float(obj) if digits is None else float(f"{obj:.{digits}g}")
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [jsonable(v, digits) for v in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v, digits) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        return jsonable(obj.tolist(), digits)
    if isinstance(obj, ParaPoint):
        return jsonable(obj.coords(), digits)
    if hasattr(obj, "to_dict"):
        return jsonable(obj.to_dict(), digits)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_CSV_CELL = 25  # the longest repr, -2.2250738585072014e-308, and a separator
_CSV_BLOCK = 1 << 9  # rows laid out and written at a time


def write_csv(path, header, columns):
    """Write the header, then a line per row of the equal-length float64
    or int64 arrays in columns, each value as its repr.

    A column's distinct values, by bits so that -0.0 is not 0.0, are
    formatted once, each into a NUL-padded cell whose last byte is the
    separator after it.  A block of rows is its cells laid side by side,
    less the NUL bytes, which no repr holds."""
    cells = []
    for col, end in zip(columns, b"," * (len(columns) - 1) + b"\n"):
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        text = np.fromiter(map(repr, bits.view(col.dtype).tolist()), f"S{_CSV_CELL}", bits.size)
        text.view(np.uint8)[_CSV_CELL - 1 :: _CSV_CELL] = end
        cells.append((text, inverse))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            rows = np.stack([text[inv[lo : lo + _CSV_BLOCK]] for text, inv in cells], 1)
            rows = rows.view(np.uint8)
            fh.write(rows[rows != 0])


def write_point_csv(path, header, tables):
    """Write the table of each point, rows of len(header) floats, one
    after the other under the header point_index + header, each row led
    by its point's index; a point with an empty table writes no row."""
    tables = [np.reshape(t, (-1, len(header))) for t in tables]
    index = np.repeat(np.arange(len(tables)), [len(t) for t in tables])
    write_csv(path, ["point_index", *header], [index, *np.vstack([np.empty((0, len(header))), *tables]).T])


class Record:
    """Base of the dataclass records: to_dict() maps each field name to
    the JSON form of its value."""

    def to_dict(self):
        return {f.name: jsonable(getattr(self, f.name)) for f in dataclasses.fields(self)}
