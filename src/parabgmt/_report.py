"""The one JSON walker behind every report, and the base of the result records."""

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


class Record:
    """Base of the dataclass records: to_dict() maps each field name to
    the JSON form of its value."""

    def to_dict(self):
        return {f.name: jsonable(getattr(self, f.name)) for f in dataclasses.fields(self)}
