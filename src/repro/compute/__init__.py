"""Array-native planning kernels.

:mod:`repro.compute.numpy_backend` holds the array implementation of the
EEDCB hot path: the implicit Section VI-A auxiliary graph
(:class:`~repro.compute.numpy_backend.NumpyAuxGraph`), whose rows one
compiled call fills, and the compiled greedy directed-Steiner search
that reads them directly (:mod:`repro.compute.native`).
:class:`~repro.algorithms.eedcb.EEDCB` builds that graph for every TVEG,
whether link costs are constant within each contact or vary within one.
The networkx construction in ``tests/aux_oracle.py`` is the reference
the tests hold it to.
"""
