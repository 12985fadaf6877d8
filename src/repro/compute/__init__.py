"""Array-native planning kernels.

:mod:`repro.compute.numpy_backend` holds the array implementation of the
EEDCB hot path: the implicit Section VI-A auxiliary graph
(:class:`~repro.compute.numpy_backend.NumpyAuxGraph`), whose rows one
compiled counting sweep locates, and the compiled greedy
directed-Steiner search that reads them directly
(:mod:`repro.compute.native`).  The graph stores no per-transmission
array: each node's active contact components are listed once per
segment of its DTS points where none starts or ends, and a state's cost
levels and receivers are read from its segment's list and the state
table.  Only this package knows that row format; the rest of the
pipeline reads costs through
:meth:`~repro.compute.numpy_backend.NumpyAuxGraph.level_costs`.
:class:`~repro.algorithms.eedcb.EEDCB` builds that graph for every TVEG,
whether link costs are constant within each contact or vary within one.
The networkx construction in ``tests/aux_oracle.py`` is the reference
the tests hold it to.
"""
