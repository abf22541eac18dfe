"""Finding and exactly verifying linear relations among coefficients.

For the double-pole multiplier the depth-2 coefficients satisfy a linear
relation with constant coefficients.  Each coefficient has a unique normal
form sum_v r_(w,v) L_v over the hyperlogarithms L_v of the poles, with
pole-localized rational r_(w,v), and the hyperlogarithms are free over
those rationals; so the relations are exactly the kernel of the matrix of
the r_(w,v)'s coefficients, found by exact elimination over Q(i).  Each
relation's numeric defect is read at fresh sample endpoints as a check.

Run: python3 demos/discover_relations.py
"""

from fractions import Fraction

from hyperlog import (
    Alphabet,
    Multiplier,
    PoleLocalizedRational,
    PoleSet,
    discover_relations,
    format_ncpoly,
    format_plr_pretty,
    normal_form_table,
    rational_coefficient_table,
)

alphabet = Alphabet(["x0", "x1"])
poles = PoleSet(["0", "1"])
M = Multiplier(
    alphabet,
    poles,
    {
        0: PoleLocalizedRational.pole_term(poles, 0, 2, 1),
        1: PoleLocalizedRational.pole_term(poles, 1, 2, 1),
    },
)

print("exact closed forms of the coefficients (basepoint z0 = -1):")
table = rational_coefficient_table(M, -1, 2)
for w in sorted(table.entries):
    print(f"  <S|{alphabet.format_word(w):6s}> = {format_plr_pretty(table.entries[w])}")
print("  blocked (need logarithms):",
      ", ".join(alphabet.format_word(w) for w in sorted(table.blocked)))

print("\ntheir normal forms over the hyperlogarithms L(a_1,...) of the poles:")
forms = normal_form_table(M, -1, 2)
for w in sorted(table.blocked):
    terms = [
        f"({format_plr_pretty(r)})" + (f"*L({','.join(str(poles[j]) for j in v)})" if v else "")
        for v, r in sorted(forms[w].items())
    ]
    print(f"  <S|{alphabet.format_word(w):6s}> = " + " + ".join(terms))

print("\nsearching for relations at depth <= 2, z0 = -1 ...")
for rel in discover_relations(M, -1, 2):
    print(f"  0 = {format_ncpoly(rel.poly, alphabet)}"
          f"   [{rel.status.value}, numeric defect {rel.defect:.2e}]")

print("\nthe relation is a one-parameter family in the basepoint z0:")
print("  0 = x1.x0 + x0.x1 + (1 - 1/z0)*x1 + (z0/(1-z0))*x0")
for z0 in (Fraction(-1), Fraction(-3), Fraction(-100)):
    c1 = 1 - Fraction(1) / z0
    c0 = z0 / (1 - z0)
    print(f"  z0 = {str(z0):>6s}:  x1 coefficient {str(c1):>8s},"
          f"  x0 coefficient {str(c0):>9s}")
print("  z0 -> inf:  x1 coefficient 1, x0 coefficient -1 (basepoint-free form)")

print("\nsame search for the simple-pole multiplier finds nothing:")
Mp = Multiplier.fuchsian(alphabet, poles, {0: (0, 1), 1: (1, -1)})
found = discover_relations(Mp, -1, 2)
print(f"  relations found: {len(found)} (the family is independent)")
