"""Exact intersection-theory toolkit for trigonal covers.

The package models the Chow rings of a tower of projective bundles with
integer-parameter coefficients, re-derives the divisor relations that
hold on the ramification loci, certifies that the marked classes are
rationally trivial, and enumerates the codimension-1 boundary strata of
the compactified space.  All arithmetic is exact: coefficients live in
Q[g], stored as ints where integral in a non-constant polynomial and as
Fractions otherwise, never floats.
"""

__version__ = "0.1.0"

from .bundles import (BundleClass, JetPoint, SplittingType, excess_class,
                      in_locus_B, jet_rank, principal_parts_chern,
                      splitting_sym3)
from .ring import ChowElement, Generator, ParamPoly, RingPresentation
from .spaces import SPACE_IDS, SpaceContext, build_space, diagonal, lift, pushforward
from .strata import (FactorSpace, StratumDescriptor, branch_count, classify_factor,
                     enumerate_codim1, format_stratum, oracle_enumerate)
from .verify import (ChainReport, LemmaId, StageFailure, TrivialityReport,
                     TruncationTooLow, Verdict, relation_matrix, tt_chain,
                     triviality_check, verify_all, verify_relation)

__all__ = [
    "__version__",
    "BundleClass", "JetPoint", "SplittingType", "excess_class",
    "in_locus_B", "jet_rank", "principal_parts_chern", "splitting_sym3",
    "ChowElement", "Generator", "ParamPoly", "RingPresentation",
    "SPACE_IDS", "SpaceContext", "build_space", "diagonal", "lift",
    "pushforward",
    "FactorSpace", "StratumDescriptor", "branch_count", "classify_factor",
    "enumerate_codim1", "format_stratum", "oracle_enumerate",
    "ChainReport", "LemmaId", "StageFailure", "TrivialityReport",
    "TruncationTooLow", "Verdict",
    "relation_matrix", "tt_chain",
    "triviality_check", "verify_all", "verify_relation",
]
