#!/usr/bin/env python
"""Network analysis: clustering coefficients of a social graph.

The paper's motivation (Section I): triangle counts underpin the
clustering coefficient and the transitivity ratio used in network
analysis.  This example plays the downstream analyst:

1. build a LiveJournal-like social network (power-law configuration
   model stand-in, like the paper's SNAP workload),
2. compute the full clustering report through the GPU-backed counter,
3. contrast it against an Erdős–Rényi null model of the same size —
   the classic "is this network clustered?" question,
4. list the most locally-clustered high-degree users.

Run:  python examples/social_network.py
"""

import numpy as np

import repro


def gpu_counter(graph):
    """Triangle counts via the simulated GTX 980 pipeline."""
    return repro.gpu_count_triangles(graph, device=repro.GTX_980).triangles


def main() -> None:
    # A mini social network with realistic degree skew.
    social = repro.datasets.get("livejournal").build(scale=1 / 1024, seed=42)
    print(f"social network: {social.num_nodes:,} users, "
          f"{social.num_edges:,} friendships")

    report = repro.clustering_report(social, counter=gpu_counter)
    print(f"  triangles:            {report.triangles:,}")
    print(f"  transitivity:         {report.transitivity:.4f}")
    print(f"  average clustering:   {report.average_clustering:.4f}")

    # Null model: same nodes and edges, no social structure.
    null = repro.generators.erdos_renyi_gnm(social.num_nodes,
                                            social.num_edges, seed=42)
    null_report = repro.clustering_report(null, counter=gpu_counter)
    print(f"random graph with the same size:")
    print(f"  triangles:            {null_report.triangles:,}")
    print(f"  transitivity:         {null_report.transitivity:.4f}")
    if null_report.transitivity > 0:
        ratio = report.transitivity / null_report.transitivity
        print(f"  => the social network is {ratio:.1f}x more clustered "
              f"than chance")

    # Per-user view via the GPU pipeline: one atomicAdd per triangle
    # corner gives every user's local count in a single kernel pass.
    gpu_local = repro.gpu_local_counts(social)
    local = gpu_local.local_clustering
    degrees = social.degrees()
    hubs = np.argsort(-degrees)[:200]
    tight = hubs[np.argsort(-local[hubs])[:5]]
    print("top hub users by local clustering (GPU-computed):")
    for user in tight:
        print(f"  user {int(user):>6}: degree {int(degrees[user]):>4}, "
              f"local clustering {local[user]:.3f}")

    # And the triangles themselves, enumerated (forward listing).
    listing = repro.list_triangles(social, limit=5_000_000)
    print(f"listed {listing.count:,} friendship triangles; first three: "
          f"{[tuple(map(int, t)) for t in listing.triangles[:3]]}")


if __name__ == "__main__":
    main()
