"""Exact engine for nilpotent dg Lie algebras and their descent theory.

Everything runs over exact rationals: Maurer-Cartan sets and gauge
actions of nilpotent differential graded Lie algebras, Deligne
groupoids, Sullivan polynomial forms on simplices, totalization of
cosimplicial objects, and the comparison between the Deligne groupoid
of a totalized Cech algebra and the groupoid of descent data.

The package re-exports nothing: import names from the submodules
(``dgdescent.cech``, ``dgdescent.tot``, ...), so that a command line
job loads only the modules it runs.
"""

__version__ = "0.1.0"
