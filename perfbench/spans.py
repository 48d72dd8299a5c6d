"""Span arithmetic for the traced pass.

A span is `[name, start, end, parent, value]`: `parent` is the index of the
span that caused it within the same invocation (None at the top) and
`value` an optional count recorded at the boundary (bytes written, DP45
steps).  Self time is a span's duration minus the part of that interval its
child spans cover; children running in parallel are merged, not summed.
"""

# Complex 36x36 mat-vec: 36*36 complex multiply-adds of 8 real flops each.
DIM = 36
FLOPS_PER_MATVEC = 8 * DIM * DIM
# DP45 with first-same-as-last: 6 mat-vecs per attempted step, plus the
# initial derivative of each integrate call.
MATVECS_PER_STEP = 6

COMMANDS = ("spectrum", "window", "vg", "validate", "evolve", "params")
COUNTED = (
    "config.resolve", "materials.derive_gamma", "cli.write",
    "bloch.build_hamiltonian", "bloch.build_liouvillian",
    "bloch.steady_state", "bloch.evolve", "states.assert_density_matrix",
    "kernels.integrate", "optics.sweep", "optics.full_model_chi",
    "validation.validate_reduction", "lambda_system.chi_analytic",
)

# Layers every workload calls, so their self times are never 0.
ALWAYS_BUSY = (
    "config.resolve", "materials.derive_gamma", "cli.write",
    "bloch.build_hamiltonian", "bloch.build_liouvillian",
    "states.assert_density_matrix",
)

# The per-layer metrics BENCHMARK.json lists, with units.  Values are totals
# over one pass of the workload's invocation cycle.
PER_LAYER = (
    [("import.eitsim_s", "s")]
    + [(f"{name}.calls", "count") for name in COUNTED]
    + [(f"{name}.self_s", "s") for name in ALWAYS_BUSY]
    + [("cli.commands.self_s", "s"),
       ("cli.write.bytes", "B"),
       ("kernels.integrate.steps", "count"),
       ("kernels.integrate.matvecs_computed", "count"),
       ("kernels.integrate.flops_computed", "flop"),
       ("optics.sweep.parallel_ratio", "ratio"),
       ("trace.overhead_p50_s", "s")]
)

# Self times of layers that some workload leaves idle: there they read
# exactly 0 on every run, so they are printed and kept in the results
# record but not listed as benchmark metrics.
LAYER_TIMES = (
    [(f"{name}.self_s", "s") for name in COUNTED if name not in ALWAYS_BUSY]
    + [(f"cli.{cmd}.self_s", "s") for cmd in COMMANDS]
    + [("kernels.integrate.us_per_step", "us")]
)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children(spans) -> dict:
    kids = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            kids.setdefault(span[3], []).append(i)
    return kids


def self_times(spans) -> list:
    """Self time of every span of one invocation."""
    kids = children(spans)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = _covered([(spans[k][1], spans[k][2])
                            for k in kids.get(i, ())], start, end)
        out.append((end - start) - covered)
    return out


def parallel_sums(spans, name: str) -> tuple:
    """(sum of child durations, covered time) over every span called name.

    Their ratio is 1.0 when the children ran one after another.
    """
    kids = children(spans)
    busy = covered = 0.0
    for i, span in enumerate(spans):
        if span[0] != name:
            continue
        intervals = [(spans[k][1], spans[k][2]) for k in kids.get(i, ())]
        busy += sum(end - start for start, end in intervals)
        covered += _covered(intervals, span[1], span[2])
    return busy, covered


def pass_metrics(invocations) -> dict:
    """Per-layer metrics of one pass, from its invocations' span lists."""
    calls = {}
    self_s = {}
    values = {}
    busy = covered = 0.0
    for spans in invocations:
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if span[4] is not None:
                values[name] = values.get(name, 0) + span[4]
        b, c = parallel_sums(spans, "optics.sweep")
        busy += b
        covered += c

    out = {"import.eitsim_s": self_s.get("import.eitsim", 0.0)}
    for name in COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for cmd in COMMANDS:
        out[f"cli.{cmd}.self_s"] = self_s.get(f"cli.{cmd}", 0.0)
    out["cli.commands.self_s"] = sum(out[f"cli.{cmd}.self_s"]
                                     for cmd in COMMANDS)
    out["cli.write.bytes"] = values.get("cli.write", 0)
    steps = values.get("kernels.integrate", 0)
    out["kernels.integrate.steps"] = steps
    out["kernels.integrate.us_per_step"] = (
        1e6 * self_s.get("kernels.integrate", 0.0) / steps if steps else 0.0)
    matvecs = MATVECS_PER_STEP * steps + calls.get("kernels.integrate", 0)
    out["kernels.integrate.matvecs_computed"] = matvecs
    out["kernels.integrate.flops_computed"] = FLOPS_PER_MATVEC * matvecs
    out["optics.sweep.parallel_ratio"] = busy / covered if covered else 1.0
    return out
