"""Exact symbolic calculus of universal differential forms over
finite-dimensional unital Q-algebras: Chern character forms, Chern-Simons
transgression, and a witness-checked differential K-theory layer.

All arithmetic is exact rational; every identity check is an equality of
canonical normal forms, never a numerical tolerance.
"""

from .exactmath import Poly, Poly1, Poly2, Q0, Q1, rat_from_str, rat_to_str
from .algebra import (AlgElement, Algebra, AlgebraError, AlgebraHom,
                      algebra_from_json, algebra_to_json, make_group_algebra,
                      make_matrix_algebra, make_product, make_truncated_poly)
from .uforms import (AbClass, AbProjection, DegreeCapError, FormError, UForm,
                     ab_d, abelianization, de_rham_homology, dimension,
                     enumerate_words, extend_hom, is_exact_in_ab, multiply,
                     project_ab, random_form, word_degree)
from .connections import (Connection, ConnectionError_, Idempotent, Mat,
                          ModuleIso, apply_operator, chern, compose_iso,
                          curvature, direct_sum, extend_scalars, grassmann,
                          permute_blocks, pullback, random_automorphism,
                          random_connection, random_idempotent, random_iso,
                          sum_iso, trace_ab)
from .transgression import (BiForm, CylForm, TForm, bigon_straight,
                            chern_tform, constant_path, homotopy_K, kcs,
                            kcs_between, kcs_closed_form, reverse_path,
                            secondary_transgression, straight_line,
                            three_point_path, tilde_curvature)
from .khat import (K1Pair, KCSWitness, KHatGen, chain_witnesses, map_I,
                   map_R, map_a, odd_chern, verify_kcs_equivalence,
                   zero_generator)
from .fixtures import FIXTURE_NAMES, make_fixture
from .suites import hexagon_suite, run_suite

__version__ = "0.1.0"
