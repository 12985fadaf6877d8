"""Array-native planning kernels.

:mod:`repro.compute.numpy_backend` holds the numpy implementation of the
EEDCB hot path: the implicit Section VI-A auxiliary graph
(:class:`~repro.compute.numpy_backend.NumpyAuxGraph`) and the greedy
directed-Steiner search that reads its rows directly.
:class:`~repro.algorithms.eedcb.EEDCB` builds that graph whenever the
TVEG certifies per-contact-constant costs (``tveg.cost_cacheable``) and
the stdlib :class:`~repro.auxgraph.compact.CompactAuxGraph` otherwise;
callers never choose.
"""
