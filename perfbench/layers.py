"""The benchmark's metric declarations, in one place.

`BENCHMARK.json` at the repository root declares the same names; the
self-test (`selftest.py`) checks that the two agree.
"""

WORKLOADS = ("chart", "search", "cli", "matrix")

# (name, unit, better) for the untraced run.
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Program functions the workloads call, by `<module>.<function>`.  Each gets
# calls, busy time, p50/p90 latency and failures in the traced run.
TRACED = (
    "traintrack.generate_fixture",
    "traintrack.maximal_tree",
    "traintrack.validate",
    "traintrack.classify",
    "traintrack.boundary_walk",
    "cocyclic.i2_inverse",
    "cocyclic.is_member",
    "cocyclic.tor_prime",
    "cocyclic.i2_forward",
    "slither.total_mid_log",
    "slither.closed_form_total",
    "homology.solve_tree",
    "flags.random_flag_triple",
    "flags.triple_ratio",
    "flags.unipotent_fixing",
    "flags.compatible_triple",
    "obstruction.fuchsian_octagon",
    "obstruction.ob",
    "obstruction.lift_independence",
)

# Steps of an op that build its input rather than do the measured math.  They
# get a span, so their time is not counted as harness self time, but only
# calls and busy time are reported, to stay within the metric budget.
BRIEF = (
    "traintrack.orientation_cover",
    "cocyclic.random_free",
    "flags.log_ratio_sum",
    "obstruction.clock_shift_rep",
    "obstruction.diagonal_rep",
)

FULL_STATS = (("calls", "count", "higher"), ("busy_ms", "ms", "lower"),
              ("ms_p50", "ms", "lower"), ("ms_p90", "ms", "lower"),
              ("failed", "count", "lower"))
BRIEF_STATS = FULL_STATS[:2]

CLI_COMMANDS = ("gen-fixture", "tree", "sample-y", "torsion", "corfinal", "ob", "flags")
CLI_STATS = (("startup_ms", "ms", "lower"), ("work_ms", "ms", "lower"))

BENCH_STATS = (("self_ms", "ms", "lower"), ("trace_overhead_frac", "ratio", "lower"))


def per_layer():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for fn in TRACED:
        out += [(f"{fn}.{stat}", unit, better) for stat, unit, better in FULL_STATS]
    for fn in BRIEF:
        out += [(f"{fn}.{stat}", unit, better) for stat, unit, better in BRIEF_STATS]
    for cmd in CLI_COMMANDS:
        out += [(f"cli.{cmd}.{stat}", unit, better) for stat, unit, better in CLI_STATS]
    for wl in WORKLOADS:
        out += [(f"{wl}.bench.{stat}", unit, better) for stat, unit, better in BENCH_STATS]
    return out
