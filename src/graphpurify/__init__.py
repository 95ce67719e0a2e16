"""Purification of thermal graph states under independent phase noise.

The supported interface is the ``graphpurify`` command line
(``graphpurify.cli``).  The modules below are importable, but their
functions are not a stable API.  Stack, bottom to top: ``graphs``,
``thermal``, ``dense`` (exact oracle for small systems), ``pattern``
(trajectory engine: graph + error bits + correction frame), ``pairs``
(Bell-pair recurrence channel), ``protocol`` (divide and rebuild),
``optimality`` (two-party reconstruction argument) and ``verification``
(engine against dense oracle).

``dense``, ``optimality`` and ``verification`` are registered lazily: each
is in ``sys.modules`` and is an attribute of the package from the start,
but its body runs only on first attribute access.  numpy comes in with
``dense`` or ``verification``, and ``optimality`` reaches it only through
its reference build, so ``threshold``, ``simulate``, ``scan``, ``rates``,
``plan`` and ``check-optimality`` never load numpy.
"""

import importlib.util
import sys

from .errors import CapacityError, InvariantError, ParameterError

__version__ = "0.1.0"


def _lazy(name: str):
    """Register submodule ``name`` to load on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


dense = _lazy("dense")
optimality = _lazy("optimality")
verification = _lazy("verification")

__all__ = ["__version__", "CapacityError", "InvariantError", "ParameterError"]
