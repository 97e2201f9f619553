"""Sign-off scenario: run the full ASAP7-like rule deck on a benchmark design.

The workload is the synthesized 'aes' design (standard-cell rows, M1-M3
routing, V1/V2 vias). The example runs the complete deck in the sequential
and parallel modes, verifies both agree, and prints per-rule runtimes, the
hierarchy-pruning statistics, and the simulated device's launch and copy
counters.

    python examples/full_deck_signoff.py [design] [scale]
"""

import sys

import repro as odrc
from repro.layout import compute_stats
from repro.workloads import asap7, build_design


def main() -> None:
    design_name = sys.argv[1] if len(sys.argv) > 1 else "aes"
    scale = sys.argv[2] if len(sys.argv) > 2 else "ci"
    layout = build_design(design_name, scale)
    print(compute_stats(layout).summary())

    deck = asap7.full_deck()
    print(f"\nrule deck ({len(deck)} rules): {', '.join(r.name for r in deck)}")

    sequential = odrc.Engine(mode="sequential")
    sequential.add_rules(deck)
    seq_report = sequential.check(layout)

    parallel = odrc.Engine(mode="parallel")
    parallel.add_rules(deck)
    par_report = parallel.check(layout)

    print(f"\n{'rule':<12} {'seq ms':>9} {'par ms':>9} {'speedup':>8} {'violations':>11}")
    for s, p in zip(seq_report.results, par_report.results):
        assert s.violation_set() == p.violation_set(), s.rule.name
        speedup = s.seconds / p.seconds if p.seconds else float("inf")
        print(
            f"{s.rule.name:<12} {s.seconds * 1e3:>9.2f} {p.seconds * 1e3:>9.2f} "
            f"{speedup:>7.1f}x {s.num_violations:>11}"
        )
    print(
        f"{'total':<12} {seq_report.total_seconds * 1e3:>9.2f} "
        f"{par_report.total_seconds * 1e3:>9.2f}"
    )

    # Hierarchy pruning effectiveness (paper §IV-C): the sequential
    # backend's counters, cumulative over the deck, as its last rule saw them.
    pruning = seq_report.results[-1].stats
    done = pruning["checks_run"] + pruning["checks_reused"] + pruning["checks_refreshed"]
    print(
        f"\npruning: {pruning['checks_run']} checks run, "
        f"{pruning['checks_reused']} reused from the hierarchy memo "
        f"({pruning['checks_reused'] / max(done, 1) * 100:.0f}% reuse), "
        f"{pruning['pairs_pruned_mbr']} pairs eliminated by MBR disjointness"
    )

    # Device traffic of the parallel run (paper §IV-E): the backend's
    # counters are cumulative over the check, so the largest snapshot is
    # the whole deck's.
    device = {
        key: max(result.stats[key] for result in par_report.results)
        for key in ("kernel_launches", "h2d_copies", "h2d_bytes")
    }
    print(
        f"device: {device['kernel_launches']} kernel launches, "
        f"{device['h2d_copies']} H2D copies, "
        f"{device['h2d_bytes'] / 1024:.0f} KiB copied"
    )


if __name__ == "__main__":
    main()
