"""Witness-ray points as laws.

A ray's `build(t)` gives the point's parameter dict, which the witness
search types itself; a test that hands a ray point to the public
functions wraps it in a `ParamSet` here.
"""

from anticonc import FamilyId, ParamSet
from anticonc.distributions import _FAMILIES


def ray_law(family, t):
    """The law at t on family's witness ray."""
    family = FamilyId(family)
    return ParamSet(family, _FAMILIES[family].ray.build(t))
