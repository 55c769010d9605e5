"""Tour of the gradient-surgery primitives on random matrices.

Shows task projection, single and sequential orthogonalization, and how
the stabilizer eps trades exactness of the removal against step size.
"""

import argparse

import numpy as np

from mtunlearn import (
    GradientPair,
    alignment,
    init_subspaces,
    orthogonalize,
    project_task,
    sequential_orthogonalize,
)
from mtunlearn.linalg import frob_inner, frob_norm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    bases = init_subspaces(3, rank=args.rank, dim=2, mode="random", seed=args.seed)
    print("pairwise subspace alignment (squared Frobenius, spectral):")
    for i in range(3):
        for j in range(i + 1, 3):
            fro, spec = alignment(bases[i], bases[j])
            print(f"  tasks {i},{j}: {fro:.3f}  {spec:.3f}")

    grad = rng.standard_normal((5, args.rank))
    proj = project_task(grad, bases[0])
    print(f"\nprojection: |grad| {frob_norm(grad):.3f} -> |P grad| {frob_norm(proj):.3f}")
    # idempotent
    print(f"reprojection residual: {frob_norm(project_task(proj, bases[0]) - proj):.2e}")

    g_f = rng.standard_normal((5, args.rank))
    g_r = rng.standard_normal((5, args.rank))
    print("\nalignment of forget gradient with retain gradient after orthogonalization:")
    print(f"  before: {frob_inner(g_f, g_r):+.4f}")
    for eps in (0.0, 1e-8, 1e-3, 1.0):
        out = orthogonalize(g_f, g_r, eps=eps)
        print(f"  eps={eps:<6g} residual alignment {frob_inner(out, g_r):+.2e}")

    forget = GradientPair(g_f, rng.standard_normal((7, args.rank)))
    stages = {
        "clean": GradientPair(g_r, rng.standard_normal((7, args.rank))),
        "inst": GradientPair(rng.standard_normal((5, args.rank)), rng.standard_normal((7, args.rank))),
    }
    out = sequential_orthogonalize(forget, list(stages.values()), eps=0.0)
    # only the last applied stage is exactly removed
    print("\nsequential removal, alignment of the output with each retain source:")
    for name, g in stages.items():
        print(f"  {name}: {frob_inner(out.a, g.a):+.2e}")


if __name__ == "__main__":
    main()
