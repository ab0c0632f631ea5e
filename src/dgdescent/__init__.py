"""Exact engine for nilpotent dg Lie algebras and their descent theory.

Everything runs over exact rationals: Maurer-Cartan sets and gauge
actions of nilpotent differential graded Lie algebras, Deligne
groupoids, Sullivan polynomial forms on simplices, totalization of
cosimplicial objects, and the comparison between the Deligne groupoid
of a totalized Cech algebra and the groupoid of descent data.
"""

__version__ = "0.1.0"

from .linalg import NoSolution, frac, solve_affine
from .cochain import Cochain, CochainMap, GradedSpace, cone, is_quasi_iso
from .dgla import (ArtinAlgebra, DgCommAlgebra, DgLieAlgebra, DgLieMap,
                   MaximalIdeal, NilpotentDgLie, NotNilpotent,
                   direct_product, ground_field, is_acyclic_fibration,
                   lower_central_series, tensor_lie)
from .forms import PolyForm, omega_apply, truncated_form_cochain
from .mcgauge import (DeligneGroupoid, FiniteLieContext, FormLieContext,
                      GaugeSearchResult, ObstructionUnsolvable,
                      SelfCheckFailed, bch, constrained_mc_solve,
                      constrained_mc_solve_rows, gauge_act, gauge_element,
                      gauge_equivalent, gauge_inverse, holonomy, mc_element,
                      mc_lift, mc_residual, solve_1simplex,
                      staged_gauge_search)
from .simplicial import (FiniteSimplicialSet, MSetFunctor,
                         MSimplicialFunctor, arrow_commutes, arrow_objects,
                         boundary_simplex, constant_msimplicial,
                         generating_arrows, limit_bruteforce,
                         limit_recursive, matching_space, standard_simplex)
from .sullivan import (BoundExhausted, SimplicialForms, extend_from_boundary,
                       omega_of_sset)
from .tot import (CosimplicialDgLie, DescentDatum, DescentGroupoid,
                  TotContext, TotLieComplex, constant_cosimplicial,
                  tot_cochain, tot_groupoid, tot_lie)
from .mc_space import (mc_simplex_from_gauge, mc_simplex_system,
                       nerve_face, nerve_is_simplex,
                       nerve_simplex_from_gauge)
from .cech import (CoverSpec, ComparisonFunctor, DeformationInstance,
                   ExtractionFailed, GluingFailed, cech_cosimplicial,
                   comparison_functor, deligne_functor, glue_descent_datum,
                   tensored_cover, verify_descent)
