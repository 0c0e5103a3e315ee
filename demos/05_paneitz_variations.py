"""Variations of the Paneitz operator under CR deformations, exactly.

Along t |-> deformation by t*phi, the quadratic form <P^t f, f> on the
pluriharmonic space has vanishing first derivative at t = 0 for every phi;
the second derivative is positive-definite when phi satisfies the
Burns-Epstein condition and acquires negative directions when it fails.
The derivative operators are verified against an independent
truncated-expansion reconstruction before being used.
"""

from crlab import (assemble_form, basis, classify, first_variation, inner,
                   one, parse_poly, pluriharmonic_basis, second_variation,
                   sphere_equal, variations_from_jets, z1, z2, z1c, z2c)

print("Cross-check first: closed-form variation operators versus the jet")
print("reconstruction from the deformed frame (order-2 expansion).")
elems = [f for s in range(4) for p in range(s + 1) for f in basis(p, s - p).elements]
for text in ["1", "z1*z2c", "z1^4"]:
    phi = parse_poly(text)
    jet_dot, jet_ddot = variations_from_jets(phi)
    dot, ddot = first_variation(phi), second_variation(phi)
    agree = all(sphere_equal(jet_dot(f), dot(f)) and sphere_equal(jet_ddot(f), ddot(f))
                for f in elems)
    print(f"  phi = {text:8} operators agree on {len(elems)} basis elements: {agree}")
print()

print("First variation: the quadratic form is identically zero (pmax = 4):")
for text in ["1", "z1", "z1*z2c", "z1^4"]:
    form = assemble_form(first_variation(parse_poly(text)), 4)
    print(f"  phi = {text:8} zero matrix: {form.is_zero()}")
print()

print("Second variation, classified exactly over H up to degree 4:")
for text in ["z1^4", "z1^3*z2", "z1^5*z1c", "1", "z1^3", "z1*z2c"]:
    phi = parse_poly(text)
    form = assemble_form(second_variation(phi), 4)
    verdict = classify(form)
    negatives = [f.to_source() for f, d in zip(pluriharmonic_basis(4), form.diagonal())
                 if d.real_sign() < 0]
    note = f"; negative directions: {negatives}" if negatives else ""
    print(f"  phi = {text:10} -> {verdict}{note}")
print()

ddot = second_variation(one)
values = {f.to_source(): inner(ddot(f), f) for f in (z1, z2, z1c, z2c)}
print("Rossi deformation phi = 1: the four coordinate directions are exactly")
print("the negative ones, with value")
for label, value in values.items():
    print(f"  <P'' {label}, {label}> = {value}")
print()
print("A negative direction certifies that the deformed Paneitz operator")
print("fails nonnegativity, matching the known non-embeddability of the")
print("Rossi structures; Burns-Epstein deformations stay positive.")
