"""Timing-model calibration: provenance of every constant, band checks.

DESIGN.md §5's honesty rule: all *counts* are measured by execution; the
constants below convert counts to simulated time.  They come from
published hardware specifications except the two marked CALIBRATED,
which were fit **once** against the paper's headline bands (Table I) and
then frozen — no per-experiment fitting.

This module also holds the bounds the reproduction bundle checks: the
Table I bands (8–16× on the C2050, 15–35× on the GTX 980, up to 2.8×
for four cards, cache hits in the ~65–85% region, bandwidth around half
of peak) expressed as tolerant predicates over a measured run, and one
bound per E1–E16 claim (:data:`CLAIM_BOUNDS`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import RowResult
from repro.gpusim.timing import LAUNCH_OVERHEAD_MS

#: Constant provenance, keyed by (owner, field).
PROVENANCE: dict[tuple[str, str], str] = {
    ("DeviceSpec", "num_sms/cores_per_sm/clock_ghz"):
        "vendor datasheets (GF100, GM204, GF108)",
    ("DeviceSpec", "memory_bytes/peak_bandwidth_gbs/pcie_gbs"):
        "vendor datasheets",
    ("DeviceSpec", "l1/l2 geometry"):
        "architecture whitepapers (Fermi/Maxwell tuning guides)",
    ("DeviceSpec", "dram_efficiency"):
        "CALIBRATED once: achieved/peak DRAM ratio for scattered reads; "
        "the paper observes 'about half' of peak on the GTX 980",
    ("DeviceSpec", "l2_bandwidth_gbs/lsu_transactions_per_cycle/"
                   "latency_hiding_warps"):
        "architecture microbenchmark literature (order-of-magnitude)",
    ("CpuSpec", "ns_per_merge_step"):
        "CALIBRATED once against the Table I speedup bands, then frozen",
    ("CpuSpec", "ns_per_pass_element/ns_per_sort_compare"):
        "single-thread streaming/sorting throughput of a Westmere core",
}


@dataclass(frozen=True)
class Band:
    """A tolerant acceptance interval for a dimensionless ratio."""

    lo: float
    hi: float
    #: multiplicative slack applied at check time: mini-scale runs distort
    #: ratios (shorter adjacency lists, launch-overhead floors), so bands
    #: get one global widening factor rather than per-row excuses.
    slack: float = 1.6

    def check(self, value: float, extra_slack: float = 1.0) -> bool:
        """Is ``value`` inside the band, widened (both sides) by the
        global slack times any caller-supplied extra?"""
        widen = self.slack * extra_slack
        return self.lo / widen <= value <= self.hi * widen


#: The paper's abstract/Section V claims.
C2050_SPEEDUP = Band(8.0, 16.84)
GTX980_SPEEDUP = Band(15.0, 35.54)
QUAD_SPEEDUP = Band(0.9, 2.82)
CACHE_HIT_PCT = Band(64.0, 83.0, slack=1.25)
#: "about half" of the 224 GB/s peak.
BANDWIDTH_FRACTION_OF_PEAK = Band(0.25, 0.70, slack=1.4)


#: Extra multiplicative slack for the real-graph stand-in rows.  Their
#: hub adjacency lists shrink with the mini scale until they fit the
#: per-SM cache, which inflates hit rates and hence GPU speedups in a way
#: full-size graphs would not (see EXPERIMENTS.md, "scale distortions").
#: Synthetic rows keep the tight band: their list-length structure
#: survives miniaturization (BA's m=50 lists are the same size at any n).
REAL_STANDIN_EXTRA_SLACK = 3.0

#: Below this many arcs a row sits in the fixed-overhead regime (kernel
#: launches, PCIe setup) where speedup bands are meaningless — the
#: paper's *smallest* graph has 5M arcs.  Such rows still run and print,
#: but are exempt from the speedup bands.
MIN_ARCS_FOR_SPEEDUP_BANDS = 20_000


@dataclass(frozen=True)
class BandCheck:
    """One band check of one row, as a structured record.

    The reproduction bundle (:mod:`repro.bench.reproduce`) serializes
    these into ``artifacts/summary.json`` — every measured number next
    to the paper's quoted band, with an explicit pass/fail — while
    :func:`check_row` returns the violations as strings for
    ``repro-bench table1``.
    """

    name: str                 # e.g. "c2050_speedup"
    workload: str
    value: float
    lo: float                 # the paper's quoted band, un-widened
    hi: float
    #: False when the band does not apply to this row (tiny graph in the
    #: fixed-overhead regime, device config not run, kernel not
    #: DRAM-bound); non-applicable checks never count as failures.
    applies: bool
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name, "workload": self.workload,
            "value": round(self.value, 4),
            "paper_lo": self.lo, "paper_hi": self.hi,
            "applies": self.applies, "passed": self.passed,
            "detail": self.detail,
        }


def row_checks(row: RowResult) -> list[BandCheck]:
    """Every band check of one measured Table I row, pass or fail.

    Speedup bands apply only to rows large enough to escape the
    fixed-overhead regime.  The Table II bands apply on every row: the
    hit rate whenever the GTX 980 ran, the bandwidth band whenever its
    counting kernel is DRAM-bound (the regime the paper's "about half
    of peak" observation describes).
    """
    name = row.workload.name
    in_regime = row.num_arcs >= MIN_ARCS_FOR_SPEEDUP_BANDS
    extra = REAL_STANDIN_EXTRA_SLACK if row.workload.kind == "real" else 1.0
    checks = []

    def add(check_name, value, band, applies, extra_slack=1.0, detail=""):
        applies = bool(applies)          # plain bool (numpy leaks here)
        checks.append(BandCheck(
            name=check_name, workload=name, value=float(value),
            lo=band.lo, hi=band.hi, applies=applies,
            passed=(not applies) or bool(band.check(value, extra_slack)),
            detail=detail))

    add("c2050_speedup", row.c2050_speedup, C2050_SPEEDUP,
        applies=bool(row.c2050) and in_regime, extra_slack=extra,
        detail=f"{name}: C2050 speedup {row.c2050_speedup:.1f}x outside "
               f"{C2050_SPEEDUP.lo}-{C2050_SPEEDUP.hi} band")
    add("gtx980_speedup", row.gtx980_speedup, GTX980_SPEEDUP,
        applies=bool(row.gtx980) and in_regime, extra_slack=extra,
        detail=f"{name}: GTX980 speedup {row.gtx980_speedup:.1f}x outside "
               f"{GTX980_SPEEDUP.lo}-{GTX980_SPEEDUP.hi} band")
    add("quad_speedup", row.quad_speedup, QUAD_SPEEDUP,
        applies=bool(row.quad) and in_regime,
        detail=f"{name}: quad speedup {row.quad_speedup:.2f}x outside "
               f"{QUAD_SPEEDUP.lo}-{QUAD_SPEEDUP.hi} band")
    add("cache_hit_pct", row.cache_hit_pct, CACHE_HIT_PCT,
        applies=bool(row.gtx980),
        detail=f"{name}: cache hit {row.cache_hit_pct:.1f}% outside "
               f"{CACHE_HIT_PCT.lo}-{CACHE_HIT_PCT.hi}% band")
    if row.gtx980:
        frac = row.bandwidth_gbs / row.gtx980.device.peak_bandwidth_gbs
        dram_bound = row.gtx980.kernel_timing.bound == "dram"
        add("bandwidth_fraction", frac, BANDWIDTH_FRACTION_OF_PEAK,
            applies=dram_bound,
            detail=f"{name}: bandwidth {row.bandwidth_gbs:.0f} GB/s = "
                   f"{frac:.2f} of peak, outside the 'about half' band")
    return checks


def check_row(row: RowResult) -> list[str]:
    """Return the band violations of one measured Table I row (the
    human-readable strings of :func:`row_checks`'s failures)."""
    return [c.detail for c in row_checks(row) if c.applies and not c.passed]


def check_daggers(rows: list[RowResult]) -> list[str]:
    """The ``†`` pattern must match Table I exactly: Orkut and
    Kronecker 21 on the C2050 (single and quad), nothing on the GTX 980."""
    problems = []
    for row in rows:
        paper = row.workload.paper
        if row.c2050 and row.dagger_c2050 != paper.dagger_c2050:
            problems.append(
                f"{row.workload.name}: C2050 dagger measured "
                f"{row.dagger_c2050}, paper {paper.dagger_c2050}")
        if row.gtx980 and row.gtx980.used_cpu_fallback:
            problems.append(
                f"{row.workload.name}: GTX 980 took the fallback; the "
                f"paper's 4 GB card never did")
    return problems


# ---------------------------------------------------------------------- #
# E1–E16 claims
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class Bound:
    """The acceptance bound of one claim: ``lo < value < hi``, either
    side optional; ``closed`` makes both comparisons inclusive."""

    lo: float | None = None
    hi: float | None = None
    closed: bool = False

    def check(self, value: float) -> bool:
        if self.lo is not None and (value < self.lo if self.closed
                                    else value <= self.lo):
            return False
        if self.hi is not None and (value > self.hi if self.closed
                                    else value >= self.hi):
            return False
        return True

    def text(self) -> str:
        if self.closed and self.lo == self.hi:
            return f"= {self.lo:g}"
        lo_op, hi_op = (">=", "<=") if self.closed else (">", "<")
        parts = []
        if self.lo is not None:
            parts.append(f"{lo_op} {self.lo:g}")
        if self.hi is not None:
            parts.append(f"{hi_op} {self.hi:g}")
        return " and ".join(parts)


#: A yes/no claim: its value is 1.0 when the property holds, else 0.0.
HOLDS = Bound(1.0, 1.0, closed=True)


#: One bound per claim id of ``summary.json``'s ``claims`` section.  The
#: tolerances are the ones the paper-claim checks have always asserted
#: (EXPERIMENTS.md gives each one's rationale); the comment on each group
#: says what the value measures.
CLAIM_BOUNDS: dict[str, Bound] = {
    # E1 Table I, per row: triangles found; speedups over the CPU; the
    # GTX 980 speedup over the C2050 speedup.
    "e1_counts_triangles": Bound(lo=0),
    "e1_c2050_beats_cpu": Bound(lo=1.0),
    "e1_gtx980_beats_cpu": Bound(lo=1.0),
    "e1_gtx980_beats_c2050": Bound(lo=1.0),
    # E2 Table II (the per-row hit-rate and bandwidth bands are the
    # Table I band checks): BA's hit rate minus the lowest other row's
    # (points); the number of DRAM-bound rows.
    "e2_ba_worst_cache_hit": Bound(hi=1.0, closed=True),
    "e2_dram_bound_rows": Bound(lo=4, closed=True),
    # E3 Figure 1, first to last Kronecker point: size ratio; CPU time
    # ratio over size ratio; GTX 980 time ratio.
    "e3_size_growth": Bound(lo=8.0),
    "e3_cpu_growth_vs_size": Bound(lo=0.25),
    "e3_gtx980_growth": Bound(lo=2.0),
    # E4–E8, E12 ablations: ablated / optimized time.
    "e4_unzip_speedup": Bound(1.10, 1.6),
    "e5_sort_u64_speedup": Bound(lo=1.8),
    "e6_merge_read_speedup": Bound(1.3, 3.0),
    "e7_readonly_cache_speedup": Bound(1.17, 1.8),
    "e8_warp_reduction_speedup": Bound(0.5, 2.0),
    "e12_cpu_preprocess_slowdown": Bound(lo=1.0),
    "e12_direct_path_ooms": HOLDS,
    "e12_fallback_used": HOLDS,
    "e12_fallback_counts_triangles": Bound(lo=0),
    # E9 launch grid: 64x8 time over the grid's best; (32, 1) time over
    # 64x8; largest relative gap of the other 512-threads/SM points.
    "e9_paper_config_near_best_gtx980": Bound(hi=1.10, closed=True),
    "e9_paper_config_near_best_c2050": Bound(hi=1.10, closed=True),
    "e9_paper_config_near_best_nvs5200m": Bound(hi=1.10, closed=True),
    "e9_low_occupancy_penalty_gtx980": Bound(lo=4.0),
    "e9_low_occupancy_penalty_nvs5200m": Bound(lo=2.0),
    "e9_512_per_sm_equivalence_gtx980": Bound(hi=0.15, closed=True),
    # E10 input format: edge-array over adjacency count time; conversion
    # time over the edge-array penalty.
    "e10_edge_array_penalty": Bound(1.0, 1.25),
    "e10_conversion_vs_penalty": Bound(lo=1.5),
    # E11 multi-GPU: measured quad speedup over its Amdahl limit; the
    # quad speedup itself; kron18 over ws speedup and preprocessing
    # fraction; largest speedup rise along ascending fraction.
    "e11_within_amdahl": Bound(hi=1.05, closed=True),
    "e11_quad_not_degenerate": Bound(lo=0.5),
    "e11_kron18_outscales_ws": Bound(lo=1.0),
    "e11_kron18_lower_preproc_fraction": Bound(hi=1.0),
    "e11_fraction_predicts_speedup": Bound(hi=0.15, closed=True),
    # E13 baselines: slower / faster counter time; estimator error (%).
    "e13_forward_beats_edge_iterator": Bound(lo=1.0),
    "e13_edge_iterator_beats_node_iterator": Bound(lo=1.0),
    "e13_doulion_error_pct": Bound(hi=20.0),
    "e13_birthday_error_pct": Bound(hi=60.0),
    # E14 related work: triangles; Green / Polak pipeline time; Leist
    # model time over the forward kernel.
    "e14_green_counts_triangles": Bound(lo=0),
    "e14_green_pipeline_ratio": Bound(0.1, 10.0),
    "e14_leist_advantage": Bound(lo=5.0),
    # E15 splitting: arc redundancy; split / broadcast time; load
    # balance; largest subgraph over the whole graph's arcs; triangles.
    "e15_schemes_agree": HOLDS,
    "e15_split_redundancy": Bound(lo=2.5),
    "e15_split_slower_than_broadcast": Bound(lo=1.0),
    "e15_load_balance": Bound(lo=0.7),
    "e15_single_device_ooms": HOLDS,
    "e15_split_subgraphs_smaller": Bound(hi=1.0),
    "e15_split_counts_triangles": Bound(lo=0),
    # E16 scale sweep, smallest to largest point: distance to the
    # paper's GTX 980 speedup; preprocessing fraction; arcs.
    "e16_speedup_converges": Bound(hi=1.25, closed=True),
    "e16_preproc_fraction_falls": Bound(hi=1.0),
    "e16_arcs_grow": Bound(lo=3.0),
}

#: Thrust calls of one single-GPU forward run, each paying
#: ``LAUNCH_OVERHEAD_MS`` before any work: the seven Section III-B
#: preprocessing steps (reduce_max, sort, node array, mark backward,
#: remove_if, recalculated node array, unzip) and the final reduce_sum.
FORWARD_PIPELINE_LAUNCHES = 8
#: The GPU timeline's fixed launch cost.  A GPU cannot beat a CPU that
#: counts the whole graph in less time than this, so E1's speedup claims
#: apply to a row only when its CPU baseline takes longer.
GPU_LAUNCH_FLOOR_MS = FORWARD_PIPELINE_LAUNCHES * LAUNCH_OVERHEAD_MS

#: The launch occupancy E9's equivalence claim is about.  Geometries
#: giving 512 threads per SM can only perform alike once every one of
#: them fills every SM, i.e. once the graph has at least this many
#: forward arcs (one per thread) per SM.
EQUIVALENCE_THREADS_PER_SM = 512


@dataclass(frozen=True)
class ClaimCheck:
    """One E1–E16 claim check, shaped like :class:`BandCheck`."""

    name: str                 # a key of CLAIM_BOUNDS
    workload: str
    value: float
    bound: Bound
    #: False when a stated property of the input puts the claim out of
    #: reach (the detail names it); non-applicable checks never fail.
    applies: bool
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name, "workload": self.workload,
            "value": round(self.value, 4),
            "lo": self.bound.lo, "hi": self.bound.hi,
            "closed": self.bound.closed,
            "applies": self.applies, "passed": self.passed,
            "detail": self.detail,
        }


def claim(name: str, workload: str, value: float, detail: str,
          applies: bool = True) -> ClaimCheck:
    """Check ``value`` against the bound of claim ``name``."""
    bound = CLAIM_BOUNDS[name]
    value, applies = float(value), bool(applies)
    return ClaimCheck(name=name, workload=workload, value=value,
                      bound=bound, applies=applies,
                      passed=(not applies) or bound.check(value),
                      detail=detail)
