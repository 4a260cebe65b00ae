"""Subgroup perfect codes in Cayley graphs of finite groups.

A subgroup H of a finite group G is a perfect code when some Cayley graph of
G has H as an independent set whose closed neighbourhoods partition the
vertices.  This package decides that property along four independent routes
(two coset criteria, an exact transversal search, and the raw graph
definition), reduces general groups to 2-groups through Sylow subgroups,
and implements closed-form classifications for abelian 2-groups, minimal
nonabelian 2-groups, dihedral groups and groups with abelian Sylow
2-subgroups, all cross-checked against each other.
"""

from .catalog import (CatalogEntry, build_entry, default_catalog,
                      load_catalog_pairs)
from .codes import (ConnectionSet, Transversal, Verdict,
                    connection_set_from_transversal, criterion3, criterion4,
                    criterion3_on_pair, exhaustive_connection_set_search,
                    find_inverse_closed_transversal, is_code_perfect,
                    verify_perfect_code_in_cayley, zhang_reduce)
from .errors import (GroupSpecError, PclError, PreconditionError,
                     SizeLimitError, WrongClassifierError)
from .groups import (Group, cyclic, dihedral, direct_product,
                     elementary_abelian, from_permutations, from_raw_table_text,
                     max_order, metacyclic_m2, nonmetacyclic_m2, quaternion,
                     semidirect_product)
from .report import METHODS, render_summary_table, run_verification_matrix
from .specs import build_family, parse_group_spec
from .structure import (FamilyRecognition, Subgroup, all_subgroups, center,
                        derived_subgroup, frattini, full_subgroup, involutions,
                        is_minimal_nonabelian, maximal_subgroups,
                        min_generators, normalizer, omega1,
                        recognize_a1_family, recognize_dihedral, squares_set,
                        subgroup_as_group, subgroup_generated, sylow,
                        sylow_containing, trivial_subgroup)
from .theorems import (ClassificationOutcome, FamilyMatch,
                       classify_a1_2group, classify_abelian_2group,
                       classify_abelian_sylow2, dihedral_classify,
                       match_theorem_family)

__version__ = "0.1.0"
