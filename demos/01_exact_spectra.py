"""Exact spectra of the canonical operators on bigraded spherical harmonics.

Every number below is an exact rational: the operators are compositions of
the CR vector fields, applied to explicit polynomial harmonics.  Each
eigenvalue is read off the operator's restriction to H_(p,q), sum_m C_m u_m
with u_m = Z1^m f or Z1bar^|m| f: the operator is the scalar lam on every
element of H_(p,q) exactly when that restriction is the constant C_0 = lam
alone, since the u_m are independent over polynomial coefficients.
"""

from crlab import (KOHN, CONJ_KOHN, PANEITZ, SUBLAP, basis, common_eigenvalue,
                   inner, kohn, z1c)

print("Bigraded harmonics H_(p,q) diagonalize the canonical operators.")
print("dim H_(p,q) = p+q+1; eigenvalues:")
print()
print("  kohn      -> 2(p+1)q        conj_kohn -> 2(q+1)p")
print("  sublap    -> 2pq+p+q        paneitz   -> pq(p+1)(q+1)")
print()

header = f"{'(p,q)':>7} {'dim':>4} {'kohn':>6} {'conj':>6} {'sublap':>7} {'paneitz':>8}"
print(header)
for p in range(4):
    for q in range(4):
        row = (
            common_eigenvalue(KOHN, p, q),
            common_eigenvalue(CONJ_KOHN, p, q),
            common_eigenvalue(SUBLAP, p, q),
            common_eigenvalue(PANEITZ, p, q),
        )
        print(f"  ({p},{q}) {basis(p, q).dimension:>4} "
              f"{str(row[0]):>6} {str(row[1]):>6} {str(row[2]):>7} {str(row[3]):>8}")

print()
print("The Paneitz operator annihilates every H_(p,0) and H_(0,q): those are")
print("the CR-pluriharmonic directions, the kernel where the deformation")
print("analysis of demos 05 lives.")
print()

smallest = min(2 * (p + 1) * q for p in range(7) for q in range(7) if (p + 1) * q)
print(f"Smallest nonzero kohn eigenvalue over the scan: {smallest}")
print("It equals the Webster curvature of the round sphere (R = 2), so the")
print("spectral lower bound 'nonzero eigenvalues >= min R' is sharp here:")
value = inner(kohn(z1c), z1c) / inner(z1c, z1c)
print(f"  kohn on conj(z1): eigenvalue {value} attained by an explicit harmonic.")
