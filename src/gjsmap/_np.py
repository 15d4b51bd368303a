"""numpy, imported on first use.

No module of the package imports numpy at module level.  Each one that uses
arrays does ``from ._np import np``: a plain module that imports numpy on its
first attribute read and then copies numpy's namespace into its own, so every
later ``np.X`` is an ordinary module-attribute read.  So ``import gjsmap``, the
CLI's parser, ``--help`` and argument errors load no numpy, and a command pays
numpy's import on its first array operation.  The copy is taken once: a numpy
attribute replaced after that first read is not seen through ``np``.
"""

import types

np = types.ModuleType("numpy")


def _load(name):
    import numpy

    vars(np).update(vars(numpy))
    return getattr(numpy, name)


np.__getattr__ = _load
