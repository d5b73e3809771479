"""End-to-end tour of the cubic-potential counterexample.

The potential h*Cycl(-zyx) induces the relations [x,y] = -h yx,
[y,z] = -h zy, [z,x] = -h xz.  The certificate passes, so the deformation is
flat in the h-adic sense and generic specializations are PBW; yet at h = 1
the algebra degenerates to xy = yz = zx = 0 with visibly larger graded
components, and the cubic element T = -zyx + xzy exhibits (1-h)-torsion.
"""

from fractions import Fraction

from pbwlab import (NCPoly, Potential, certify, hilbert, torsion_check,
                    potential_to_presentation, validate)
from pbwlab.cyclic import CyclicWord
from pbwlab.scalars import HPoly


def main():
    pot = Potential(3, {CyclicWord(3, (3, 2, 1)): -HPoly.h()})
    print(f"potential: {pot}")
    pres = potential_to_presentation(pot)
    for (i, j) in sorted(pres.phi):
        print(f"  phi_{i}{j} = {pres.phi[(i, j)]}")

    report = validate(pres)
    print(f"paths: {report.paths}")

    cert = certify(pres, "default")
    print(f"certificate (default d2): {cert.verdict}")
    for claim in cert.claims:
        print(f"  {claim}")

    print("\ngeneric Hilbert comparison (rational-function coefficients):")
    rep = hilbert(pres, 4, generic=True)
    print(f"  dims     = {rep.dims}")
    print(f"  expected = {rep.expected}")
    print(f"  observed excluded specializations: {rep.excluded}")

    print("\nHilbert comparison at h = 1:")
    rep1 = hilbert(pres, 3, a=Fraction(1))
    for k in range(4):
        print(f"  k={k}: dim {rep1.dims[k]} vs {rep1.expected[k]} -> {rep1.verdicts[k]}")

    print("\ntorsion probe for T = -zyx + xzy with factor 1 - h:")
    T = NCPoly(3, {(3, 2, 1): -HPoly.one(), (1, 3, 2): HPoly.one()})
    out = torsion_check(pres, T, HPoly([1, -1]), 5)
    print(f"  {out.status}: {out.detail}")


if __name__ == "__main__":
    main()
