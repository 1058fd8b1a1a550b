"""Character buffers as flat arrays of code points.

The ascii cell surface and the text data object keep one 4-byte
``array('I')`` slot per character instead of a list of one-character
strings (an 8-byte pointer per slot).  Every code point has the same
representation, so copies, fills and compares stay slice operations on
one layout.  These two helpers are the only place that converts between
``str`` and that format: native-order UTF-32 with ``surrogatepass``, so
any ``str`` (a lone surrogate included) round-trips.

A read decodes straight from a fresh ``memoryview`` slice, one copy.
The view is dropped before the call returns: an array that is still
exporting its buffer cannot be resized, and the text buffer's gap grows
by resizing.
"""

from __future__ import annotations

import codecs
import sys
from array import array
from typing import Optional

__all__ = ["code_points", "text_of"]

if sys.byteorder == "little":
    _encode, _decode = codecs.utf_32_le_encode, codecs.utf_32_le_decode
else:
    _encode, _decode = codecs.utf_32_be_encode, codecs.utf_32_be_decode

assert array("I").itemsize == 4, "array('I') must hold 32-bit code points"


def code_points(text: str) -> array:
    """``text`` as an ``array('I')`` of its code points."""
    return array("I", _encode(text, "surrogatepass")[0])


def text_of(points: array, start: int = 0, stop: Optional[int] = None) -> str:
    """The string held by ``points[start:stop]``."""
    return _decode(memoryview(points)[start:stop], "surrogatepass")[0]
