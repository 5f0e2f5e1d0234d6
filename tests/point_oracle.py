"""The labelled points of a curve, built eagerly, kept as an oracle.

Before the check of a curve kept only the shapes of its points, it built
one labelled EffectivePoint for each point that can contribute to an
invariant, and tau_exponents and tau_word read those labels. This builds
them that way, from the curve's own records and the local data alone,
with none of weighted_curve's code: every segmentation point first, by
oval and segment, labelled seg<oval>.<segment> and carrying its weight or
1, then each other weight in turn, labelled by the short name of its class
(pt on a complex-centre base) and its count within the class; on an
abstract base, each point record. tests/test_effective_points.py compares
weighted_curve's on-demand view with it, and tests/fraction_oracle.py
sums its chi'_orb routes over these points.
"""

from wittcurves.errors import DomainError
from wittcurves.local_data import SHORT_NAMES, WittPointClass, witt_local_datum
from wittcurves.weighted_curve import AbstractBase, EffectivePoint
from wittcurves.witt_surface import ComplexCentreBase

SEG = WittPointClass.SEGMENTATION


def eager_points(curve) -> tuple[EffectivePoint, ...]:
    """The labelled points of a curve that was built."""
    base = curve.base
    if isinstance(base, AbstractBase):
        return tuple(EffectivePoint(pt.label, "abstract", pt.e_tau, pt.residue_degree, pt.weight) for pt in base.points)
    if isinstance(base, ComplexCentreBase):
        return tuple(EffectivePoint(f"pt{i}", "point", 1, 1, wp.weight) for i, wp in enumerate(curve.points))
    seg = witt_local_datum(SEG)
    weights = {(wp.oval, wp.segment): wp.weight for wp in curve.points if wp.location is SEG}
    points = [
        EffectivePoint(f"seg{oi}.{si}", SEG.value, seg.e_tau, seg.residue_degree, weights.get((oi, si), 1))
        for oi, oval in enumerate(base.ovals)
        for si in range(len(oval.segments))
    ]
    seen = {cls: 0 for cls in WittPointClass}
    for wp in curve.points:
        cls = wp.location
        if cls is not SEG:
            datum = witt_local_datum(cls)
            label = f"{SHORT_NAMES[cls]}{seen[cls]}"
            points.append(EffectivePoint(label, cls.value, datum.e_tau, datum.residue_degree, wp.weight))
            seen[cls] += 1
    return tuple(points)


def tau_exponents(curve) -> dict[str, int]:
    """p e_tau - 1 at each labelled point, zeros left out."""
    return {pt.label: pt.weight * pt.e_tau - 1 for pt in eager_points(curve) if pt.weight * pt.e_tau != 1}


def tau_word(curve) -> tuple[tuple[str, int], ...]:
    """The Picard word of tau: the shift at x0 with exponent -2/epsilon,
    then every exponent by label; DomainError over a centre of positive or
    unknown genus, or a real centre with no oval."""
    numerics = curve.profile.numerics
    if numerics.centre_genus != 0:
        raise DomainError("the explicit word requires a genus-zero centre")
    if numerics.ovals == 0:
        raise DomainError("no rational point without ramification or weight exists")
    return (("x0", -(2 // numerics.epsilon)),) + tuple(sorted(tau_exponents(curve).items()))
