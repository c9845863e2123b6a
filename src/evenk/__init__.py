"""Exact orders of even algebraic K-groups of rings of integers of
totally real abelian number fields."""

from .kgroups import (
    CyclicPrime,
    Elementary,
    KGroupOrder,
    Rationals,
    RealQuadratic,
    combine_elementary,
    cubic_from_conductor,
    k_even_order,
    k_odd_order,
    kz,
    zeta_abelian,
)

__all__ = [
    "CyclicPrime",
    "Elementary",
    "KGroupOrder",
    "Rationals",
    "RealQuadratic",
    "combine_elementary",
    "cubic_from_conductor",
    "k_even_order",
    "k_odd_order",
    "kz",
    "zeta_abelian",
]

__version__ = "0.1.0"
