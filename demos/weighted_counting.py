"""Weighted Ehrhart enumeration: exact expectation checks, quasipolynomial
interpolation, and the type-A generating function identity."""

from corelat import ehrhart, rootsys, sommers

print("three-way expected-size agreement (direct / coweight sum / closed form):")
for name, b in [("A3", 5), ("B3", 7), ("C3", 5), ("D4", 7), ("F4", 5), ("G2", 7)]:
    rep = ehrhart.expected_size(sommers.enumerate_cores(rootsys.build_named(name), b))
    print(f"  {name}, b = {b}: count {rep.count}, mean {rep.mean}")

print()
g2 = rootsys.build_named("G2")
coeffs = ehrhart.interpolate(g2, 1)
print("G2 weighted enumerator, interpolated on b = 1 mod 6:")
print("  coefficients (constant first):", [str(c) for c in coeffs])
print("  factored form: (1/72)(b-1)(b+1)(b+5)(b+7)")
print("  equals the closed form f * count(b) * mean(b):",
      coeffs == ehrhart.predicted_enumerator_polynomial(g2))
print("  vanishing at the reciprocity roots:",
      [(t, str(v)) for t, v in ehrhart.reciprocity_roots(g2, 1).checked])

print()
b2 = rootsys.build_named("B2")
qp = ehrhart.fit_quasipolynomial(b2)
print("B2 quasipolynomial (period 2); value at b = 3 is",
      qp.evaluate(3), "= (1/3)(n+1)^2(n+2) at n = 2")

print()
for a in (2, 3, 4):
    ok = ehrhart.typea_series_check(a, 20)
    print(f"partition generating function factors through {a}-cores "
          f"to order x^20: {ok}")
