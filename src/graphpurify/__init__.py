"""Purification of thermal graph states under independent phase noise.

The supported interface is the ``graphpurify`` command line
(``graphpurify.cli``).  The modules below are importable, but their
functions are not a stable API.  Stack, bottom to top: ``graphs``,
``thermal``, ``dense`` (exact oracle for small systems), ``pattern``
(trajectory engine: graph + error bits + correction frame), ``pairs``
(Bell-pair recurrence channel), ``protocol`` (divide and rebuild),
``optimality`` (two-party reconstruction argument) and ``verification``
(engine against dense oracle).
"""

from .errors import CapacityError, InvariantError, ParameterError

__version__ = "0.1.0"

__all__ = ["__version__", "CapacityError", "InvariantError", "ParameterError"]
