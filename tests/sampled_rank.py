"""Ranks at sampled genera: a test oracle, never a proof.

A rank that holds at finitely many g says nothing about the rest, so the
package certifies ranks with linalg.param_rank instead; the tests use
these samples only to cross-check a certified rank.
"""

from chowkit.linalg import rank_fraction
from chowkit.ring import ParamPoly


def rank_at_samples(rows, g_values):
    """dict g -> rank of the matrix with g specialized to each sample."""
    m = [[ParamPoly.coerce(x) for x in row] for row in rows]
    return {gv: rank_fraction([[p(gv) for p in row] for row in m])
            for gv in g_values}
