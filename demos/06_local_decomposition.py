"""Exact local membership: mixed-permutation decompositions by LP.

A bisynchronous density with n inputs and n outputs is locally
realizable exactly when its induced map is a convex mixture of
permutation conjugations.  The membership test runs a linear program
over the permutations compatible with the density's support (all n!
when the support is full): feasible densities come back with an
explicit mixture, infeasible ones with a separating-functional
certificate that can be verified by brute force.
"""

import numpy as np

from bisyncgames import cpmaps, densities as dn, qperm

rng = np.random.default_rng(12)

# A hidden mixture is recovered (the decomposition need not be unique,
# so compare densities, not weights).
perms = [tuple(rng.permutation(4)) for _ in range(5)]
w = rng.random(5)
d = dn.mixture([dn.from_permutation(s) for s in perms], w / w.sum())
mix = dn.local_bisync_membership(d)
recon = dn.mixture_density(mix)
print("hidden mixture recovered, reconstruction error:",
      np.abs(recon.p - d.p).max())
print("atoms used:", len(mix.permutations))

# The recovered mixture also reproduces the channel.
m = cpmaps.mixed_permutation_map(mix)
print("Choi agreement:",
      np.abs(m.choi - cpmaps.phi_from_density(d).choi).max())

# The cyclic order-3 counterexample is far from the local polytope: every
# permutation meets its zero set Z, so q -> 3 - q(Z) separates it (each
# permutation puts 3 of its 6 ordered pairs x != y on Z).
z3 = dn.z3_counterexample()
cert = dn.local_bisync_membership(z3)
print("\ncyclic example violation:", cert.violation)
print("witness:", cert.witness)
on_polytope, at_density = dn.separation_margins(z3, cert)
print("certificate check: max over all 3! permutation densities =",
      f"{on_polytope:.2e}", "| value at the density =", round(at_density, 6))

# The two-block family induces densities that are always local, even for
# non-commuting projections: the density only sees tr(p q), and the
# mixture (t/2, (1-t)/2, (1-t)/2, t/2) over the block-preserving
# permutations reproduces it.  (The quantum permutation itself is not
# classical; its second moments are.)
pair = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                        qperm.random_rank1_projection(rng, 2))
d_pair = qperm.induced_density(pair)
t = float(np.trace(pair.grids[0][0, 0] @ pair.grids[0][2, 2]).real)
closed = dn.mixture([dn.from_permutation(s) for s in
                     ((0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2))],
                    [t / 2, (1 - t) / 2, (1 - t) / 2, t / 2])
print("\nblock pair: closed-form mixture error:",
      np.abs(closed.p - d_pair.p).max())
result = dn.local_bisync_membership(d_pair)
print("LP agrees it is local:", isinstance(result, dn.PermutationMixture))
