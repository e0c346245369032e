"""
Double extensions, contractions, and what they can reach
========================================================

Builds algebras with the dim-4 member's invariant profile (a double
extension of a plane, and contractions of the split rank-1 simple
algebra), then asks which family members the two constructions can
produce at all.  The double extension and the contraction along x1 are
the member itself, shown by an explicit isomorphism.  The contraction
along x0 only shares its profile: there ad b0 rotates (p0, p1), with
characteristic polynomial l^4 + l^2, while every ad x of the member has
l^2 (l^2 - a0^2) for a rational a0, so no isomorphism exists over Q.
"""

from liealg import (
    QQ,
    BilinearForm,
    ContractionInput,
    DoubleExtensionInput,
    LieAlgebra,
    Matrix,
    Subspace,
    decomposability_check,
    deeper_verdict,
    double_extend,
    double_extension_candidates,
    invariant_profile,
    is_self_dual,
    truncated_algebra,
    wigner_contract,
)

target = invariant_profile(truncated_algebra(3))
print("profile of the dim-4 member:", target)

# route 1: extend a metric plane by a line acting diagonally
plane = BilinearForm.from_entries(QQ, [[0, 1], [1, 0]])
line = LieAlgebra(QQ, 1, {})
rho = Matrix(QQ, [[-1, 0], [0, 1]])
d, d_metric = double_extend(DoubleExtensionInput(2, plane, line, (rho,)))
print("\ndouble extension:", d.labels)
print("same profile:", invariant_profile(d) == target)
print("isomorphic to the member by the identity:",
      truncated_algebra(3).is_isomorphism(d, Matrix.identity(QQ, 4)))

# route 2: contract so(2,1) along the line its Killing form pairs with
# itself; the complement Abelianizes into a central copy
so21 = LieAlgebra(QQ, 3, {(0, 1): [(2, 1)],
                          (1, 2): [(0, -1)],
                          (0, 2): [(1, -1)]})
metric = BilinearForm(so21.killing_form().matrix.scale(QQ(1, 2)))
w, w_metric = wigner_contract(
    ContractionInput(so21, metric, Subspace.coordinate(QQ, 3, [0])))
print("\ncontraction along x0:", w.labels)
print("same profile:", invariant_profile(w) == target)

# along x1 the metric is positive, and phi: T0 -> b0, T1 -> p0 + p1,
# T2 -> -p0 + p1, T3 -> -[phi T1, phi T2] maps the member onto the output
w1, _ = wigner_contract(
    ContractionInput(so21, metric, Subspace.coordinate(QQ, 3, [1])))
images = [[1, 0, 0, 0], [0, 1, 1, 0], [0, -1, 1, 0]]
images.append([-c for c in w1.bracket(images[1], images[2])])
phi = Matrix(QQ, list(zip(*images)))
print("contraction along x1 isomorphic to the member by phi:",
      truncated_algebra(3).is_isomorphism(w1, phi))

# the family members are indecomposable, so each must be reachable in
# one piece; counting dimensions pins the possible quotients down
print("\nper-member verdicts:")
for n in (3, 6, 9, 12):
    print(f"  n={n:2d}: candidates m = {double_extension_candidates(n)},",
          deeper_verdict(n).verdict.value)

# why n = 6 cannot come from a contraction: the only candidate quotient
# is the 2-dim non-Abelian algebra, and that algebra carries no metric
b = truncated_algebra(6).quotient(
    Subspace.coordinate(QQ, 7, [2, 3, 4, 5, 6]))
print("\ncandidate quotient for n=6 self-dual?", is_self_dual(b).verdict)

# sanity control: a genuine orthogonal direct sum is detected as such
from liealg import direct_sum, form_block_sum, canonical_metric
split = decomposability_check(
    direct_sum(truncated_algebra(3), truncated_algebra(3)),
    form_block_sum(canonical_metric(3), canonical_metric(3)))
print("direct sum splits at:", split.component.pivot_columns(),
      "+", split.complement.pivot_columns())
print("dim-7 member splits:",
      decomposability_check(truncated_algebra(6), canonical_metric(6)))
