"""Walk through the order-35 exclusion for the Thompson group.

A hypothetical normalized unit u of order 35 in the integral group ring has
partial augmentations only at the unique classes 5a and 7a.  One irreducible
character of degree 248 already pins the two unknowns into a box that the
congruence conditions cannot meet.
"""

from pgq import fixtures
from pgq import helpmethod as H

slice_ = fixtures.load_slice("thompson")
print(f"group {slice_.group_name}, |G| = {slice_.group_order}")
print(f"classes: {[(c.name, c.order) for c in slice_.classes]}")

chi = slice_.character("chi248")
print(f"\ncharacter {chi.name}: degree {chi.degree}, "
      f"chi(5a) = {chi.value('5a').to_rational()}, chi(7a) = {chi.value('7a').to_rational()}")

# the proper powers of u are forced: u^5 has order 7, u^7 has order 5, and
# each order has a single class
powers = {5: H.trivial_pa(slice_, "7a"), 7: H.trivial_pa(slice_, "5a")}


def show(k, coeffs):
    """k + sum T[C] e_C, written with signs."""
    return f"{k}" + "".join(f" {'-' if t < 0 else '+'} {abs(t)}*e_{c}" for c, t in coeffs.items())


print("\n35 * eigenvalue multiplicities as integer affine forms in (e_5a, e_7a):")
for label, l in (("mu(1, u, chi)", 0), ("mu(zeta_5, u, chi)", 7)):
    k, coeffs = H.multiplicity_form(slice_, chi, 35, l, powers)
    # augmentation one: e_7a = 1 - e_5a
    t7 = coeffs.get("7a", 0)
    k5, t5 = k + t7, coeffs.get("5a", 0) - t7
    print(f"  35*{label} = {show(k, coeffs)}   -->   {show(k5, {'5a': t5})}")
    at = k5 + t5 * -6
    print(f"      at e_5a = -6: {label} = {at}/35 = {at // 35}")

result = H.feasible_partial_augmentations(slice_, 35, exponents=[0, 7])
print(f"\nderived integer bounds: {result.bounds}")
print("congruences:", "; ".join(str(c) for c in result.congruences if c.classes))
print(f"feasible vectors: {[pa.entries for pa in result.feasible]} -> {result.status}")
print("\nno normalized unit of order 35 exists: the prime pair (5, 7) is excluded.")
