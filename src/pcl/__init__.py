"""Subgroup perfect codes in Cayley graphs of finite groups.

A subgroup H of a finite group G is a perfect code when some Cayley graph of
G has H as an independent set whose closed neighbourhoods partition the
vertices.  This package decides that property along four independent routes
(two coset criteria, an exact transversal search, and the raw graph
definition), reduces general groups to 2-groups through Sylow subgroups,
and implements closed-form classifications for abelian 2-groups, minimal
nonabelian 2-groups, dihedral groups and pairs whose reduced P is nontrivial
and abelian, all cross-checked against each other.

A pcl process runs one thread.  numpy's OpenBLAS starts a worker thread per
further core when it loads, and that worker spins for about 0.1 s of CPU
though pcl makes no BLAS call, so numpy is loaded here, before any
submodule, with ``OPENBLAS_NUM_THREADS=1`` unless the caller has set that
variable.  OpenBLAS reads it once, as it loads, so it is removed again
straight after: the environment this process and its children see is left
as it was.  Where numpy was imported before pcl, this changes nothing.
"""

import os

if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .catalog import (CatalogEntry, build_entry, default_catalog,
                      load_catalog_pairs)
from .codes import (ConnectionSet, Verdict, connection_set_from_transversal,
                    criterion3, criterion4, exhaustive_connection_set_search,
                    find_inverse_closed_transversal, order4_witness,
                    verify_perfect_code_in_cayley, zhang_reduce)
from .errors import (GroupSpecError, PclError, PreconditionError,
                     SizeLimitError, WrongClassifierError)
from .groups import (Group, cyclic, dihedral, direct_product,
                     elementary_abelian, from_permutations, from_raw_table_text,
                     max_order, metacyclic_m2, nonmetacyclic_m2, quaternion,
                     semidirect_product)
from .report import METHODS, render_summary_table, run_verification_matrix
from .specs import build_family
from .structure import (FamilyRecognition, Subgroup, all_subgroups,
                        derived_subgroup, frattini, full_subgroup, involutions,
                        is_minimal_nonabelian, maximal_subgroups, min_generators,
                        normalizer, recognize_a1_family, recognize_dihedral,
                        subgroup_as_group, subgroup_generated, sylow,
                        sylow_containing, trivial_subgroup)
from .theorems import (ClassificationOutcome, FamilyMatch, classify,
                       classify_a1_2group, classify_abelian_2group,
                       classify_abelian_sylow2, dihedral_classify)

__version__ = "0.1.0"
