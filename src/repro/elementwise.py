"""Elementwise helpers polymorphic over Python floats and float64 arrays.

The roofline step model prices one step shape (Python floats) or a whole
axis of shapes (NumPy float64 arrays) through the *same* cost functions.
IEEE-754 arithmetic on float64 arrays is elementwise identical to the
same operations on Python floats, so plain ``+ - * /`` need no help; the
helpers here absorb the few constructs that differ between the two:

* ``max``/``min``, and range checks (validation);
* terms whose NumPy ufunc is not guaranteed to round like the scalar
  function (``**``, ``math.log``/``math.sqrt``, float ``//``) — those are
  evaluated one element at a time through the scalar function itself.

Selections match the builtins on the non-negative, finite operands the
step model admits (never ``-0.0`` or NaN), so both input kinds produce
the same bits.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["lowest", "maximum", "minimum", "per_element", "zero_where"]

_FMIN = np.fmin.reduce
_INF = float("inf")


def lowest(x):
    """``x`` for a scalar; the smallest non-NaN element of an array (``inf``
    when there is none).  ``lowest(x) <= b`` holds exactly when some
    element is ``<= b``, at a fraction of the cost of building the
    comparison array on the short arrays the step model prices."""
    if isinstance(x, np.ndarray):
        return _FMIN(x, initial=_INF)
    return x


def maximum(a, b):
    """Builtin ``max`` for scalars, ``np.maximum`` when either is an array."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def minimum(a, b):
    """Builtin ``min`` for scalars, ``np.minimum`` when either is an array."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def per_element(fn: Callable[[float], float], x):
    """``fn(x)`` for a scalar; ``fn`` applied to each element (as a Python
    float) of an array."""
    if isinstance(x, np.ndarray):
        return np.array([fn(v) for v in x.tolist()], dtype=np.float64)
    return fn(x)


def zero_where(cond, value):
    """``value`` with ``0.0`` wherever ``cond`` holds."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, 0.0, value)
    return 0.0 if cond else value
