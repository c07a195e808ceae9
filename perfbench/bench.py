"""Workloads, timing loop and metrics of the minfilt benchmark.

Every workload is a closed loop with one caller and no threads: the next
unit of work starts when the previous one has been checked.  A unit makes the
minfilt call, then ``naive_fir`` and ``np.correlate`` on the same inputs, so
the ratios between them are taken call by call, inside one CPU-speed phase.
All inputs are drawn from the seed before any timing starts.  The gate runs
outside the timed calls.  Timed end-to-end metrics are scaled by a probe run
just before and after each call; see README.md for why, and for why each
workload exists.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from minfilt import (
    OpCounter,
    count_proposed,
    fir_filter,
    generate_plan,
    naive_fir,
    precompute_diagonal,
    validate_plan,
)
from oracle import RowOrderOracle, failed_exact, failed_float, spot_check
from tracer import Tracer

# Set-up is repeated and its median reported; 9 keeps retap_wide's set-up
# (a ~0.2-0.4 s dense plan each time) near 3 s in slow CPU phases.
SETUP_REPEATS = 9
EXACT_BOUND = 2**20

E2E_UNITS = {
    "setup_s": "s",
    "outputs_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "speedup_vs_naive": "x",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "plan.generate_s": "s",
    "plan.validate_s": "s",
    "plan.products": "count",
    "plan.a_pre_bytes": "bytes",
    "kernels.precompute_s": "s",
    "kernels.precompute_calls": "count",
    "kernels.mults_per_window": "count",
    "kernels.adds_per_window": "count",
    "kernels.pre_adds_per_window": "count",
    "kernels.post_adds_per_window": "count",
    "stream.fir_filter_s": "s",
    "stream.windows": "count",
    "stream.ns_per_window": "ns",
    "cost.multipliers": "count",
    "cost.scalar_additions": "count",
    "reference.naive_fir_s": "s",
    "baseline.np_correlate_s": "s",
    "baseline.call_vs_correlate": "x",
    "host.probe_ms": "ms",
    "trace.overhead_ratio": "x",
    "plan.self_s": "s",
    "kernels.self_s": "s",
    "stream.self_s": "s",
    "reference.self_s": "s",
    "cost.self_s": "s",
    "baseline.self_s": "s",
}


class BenchError(RuntimeError):
    """A check inside the benchmark failed; the run reports no result."""


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    n: int                   # samples per signal
    exact: bool
    reuse_kernel: bool       # one PreparedKernel for every call, made in set-up
    validate_in_setup: bool
    pool: int                # distinct inputs, cycled through by the loop


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream_m11", 11, 20000, exact=False, reuse_kernel=True,
                 validate_in_setup=True, pool=16),
        Workload("retap_wide", 1024, 1024 + 63, exact=False, reuse_kernel=False,
                 validate_in_setup=False, pool=64),
        Workload("verify_exact", 11, 11 + 15, exact=True, reuse_kernel=False,
                 validate_in_setup=True, pool=256),
    )
}


@dataclass(frozen=True)
class Input:
    taps: np.ndarray
    signal: np.ndarray
    taps_f: np.ndarray       # float64 copies for np.correlate
    signal_f: np.ndarray


def make_inputs(wl: Workload, seed: int) -> list[Input]:
    rng = np.random.default_rng([seed, wl.m, wl.n])
    if wl.exact:
        taps = rng.integers(-EXACT_BOUND, EXACT_BOUND + 1, size=(wl.pool, wl.m))
        signals = rng.integers(-EXACT_BOUND, EXACT_BOUND + 1, size=(wl.pool, wl.n))
    else:
        taps = rng.standard_normal((wl.pool, wl.m))
        signals = rng.standard_normal((wl.pool, wl.n))
    if wl.reuse_kernel:
        taps[:] = taps[0]
    return [
        Input(t, x, t.astype(np.float64), x.astype(np.float64))
        for t, x in zip(taps, signals)
    ]


def host_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# The probe is a fixed direct-sum FIR in the workload's own arithmetic,
# Python floats or Fractions: code of the same kind as the calls it brackets,
# so it slows by about as much in a slow CPU phase.  Both are sized to take
# about PROBE_REF_MS in the slower phase of the 2-core host the bounds were
# set on.  A timed end-to-end metric is scaled by PROBE_REF_MS / (mean of the
# probes just before and just after the measurement), which takes out most of
# the phase; raw times go to the result file.
_PROBE_TAPS = [0.5, -0.25, 0.125, 0.75, -1.5, 0.3, 0.2]
_PROBE_SIGNAL = [float(i % 13) - 6.0 for i in range(900)]
_PROBE_TAPS_EXACT = [Fraction((i * 7919) % 2**21 - 2**20) for i in range(7)]
_PROBE_SIGNAL_EXACT = [Fraction((i * 104729) % 2**21 - 2**20) for i in range(30)]
PROBE_REF_MS = 1.0


def probe_ms(exact: bool) -> float:
    """Time of one probe, in ms."""
    w, x = (_PROBE_TAPS_EXACT, _PROBE_SIGNAL_EXACT) if exact else (_PROBE_TAPS, _PROBE_SIGNAL)
    start = time.perf_counter()
    for j in range(len(x) - len(w) + 1):
        acc = x[j] * w[0]
        for i in range(1, len(w)):
            acc = acc + x[i + j] * w[i]
    return (time.perf_counter() - start) * 1e3


def set_up(wl: Workload, first: Input, tracer: Tracer, call_id: int):
    """Everything before the first call can run."""
    with tracer.span("generate_plan", "plan", call_id):
        plan = generate_plan(wl.m)
    if wl.validate_in_setup:
        with tracer.span("validate_plan", "plan", call_id):
            report = validate_plan(plan)
        if not report.ok:
            raise BenchError(f"validate_plan failed: {report.failures}")
    kernel = None
    if wl.reuse_kernel:
        with tracer.span("precompute_diagonal", "kernels", call_id):
            kernel = precompute_diagonal(plan, first.taps, exact=wl.exact)
    return plan, kernel


def windows_of(wl: Workload) -> int:
    return (wl.n - wl.m + 2) // 2


def check_op_counts(wl: Workload, plan, kernel, inp: Input, cost) -> dict:
    """Count one fir_filter call with OpCounter and check it against the plan."""
    counter = OpCounter()
    fir_filter(kernel, inp.signal, counter)
    windows = windows_of(wl)
    pre = sum(int(np.count_nonzero(row)) - 1 for row in np.asarray(plan.a_pre))
    post = sum(int(np.count_nonzero(row)) - 1 for row in np.asarray(plan.a_post))
    problems = []
    if counter.mults != plan.p * windows:
        problems.append(f"mults {counter.mults} != P {plan.p} x {windows} windows")
    if counter.adds != (pre + post) * windows:
        problems.append(f"adds {counter.adds} != ({pre} + {post}) x {windows} windows")
    if pre + post != cost.scalar_additions:
        problems.append(f"pre {pre} + post {post} != count_proposed {cost.scalar_additions}")
    if problems:
        raise BenchError("op-count cross-check: " + "; ".join(problems))
    return {
        "kernels.mults_per_window": counter.mults // windows,
        "kernels.adds_per_window": counter.adds // windows,
        "kernels.pre_adds_per_window": pre,
        "kernels.post_adds_per_window": post,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    inputs = make_inputs(wl, seed)
    tracer = Tracer(trace)

    # setup_probes[i] is taken just before set-up repeat i; probes[i] is the
    # mean of the probes just before and just after the call of unit i.
    setup_probes = [probe_ms(wl.exact)]
    setup_times = []
    call_id = 0
    for _ in range(SETUP_REPEATS):
        call_id -= 1
        start = time.perf_counter()
        plan, kernel = set_up(wl, inputs[0], tracer, call_id)
        setup_times.append(time.perf_counter() - start)
        setup_probes.append(probe_ms(wl.exact))
    precompute_calls = SETUP_REPEATS if wl.reuse_kernel else 0

    oracle = None
    if not wl.exact:
        oracle = RowOrderOracle(plan)
        spot_kernel = kernel or precompute_diagonal(plan, inputs[0].taps)
        bad = spot_check(oracle, spot_kernel, inputs[0].signal)
        if bad:
            raise BenchError(f"row-order oracle and apply_basic_op differ on windows {bad}")

    units = []
    probes = []
    checked = failed = 0
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds:
        call_id = len(units)
        inp = inputs[call_id % len(inputs)]
        # The traced run alternates traced and untraced units, so both
        # halves see the same CPU phases and their ratio is the overhead.
        tracer.enabled = trace and call_id % 2 == 1

        before = probe_ms(wl.exact)
        t0 = time.perf_counter()
        with tracer.span("call", "bench", call_id):
            if not wl.reuse_kernel:
                with tracer.span("precompute_diagonal", "kernels", call_id):
                    kernel = precompute_diagonal(plan, inp.taps, exact=wl.exact)
            with tracer.span("fir_filter", "stream", call_id):
                y = fir_filter(kernel, inp.signal)
        call_s = time.perf_counter() - t0
        probes.append((before + probe_ms(wl.exact)) / 2)
        t0 = time.perf_counter()
        with tracer.span("naive_fir", "reference", call_id):
            ref = naive_fir(inp.signal, inp.taps, exact=wl.exact)
        t1 = time.perf_counter()
        with tracer.span("np.correlate", "baseline", call_id):
            corr = np.correlate(inp.signal_f, inp.taps_f, "valid")
        t2 = time.perf_counter()

        with tracer.span("gate", "bench", call_id):
            if wl.exact:
                failed += failed_exact(y, ref)
            else:
                failed += failed_float(y, oracle.outputs(kernel.s, inp.signal), ref)
            checked += len(ref)
            if not np.allclose(corr, np.array(ref, dtype=np.float64), rtol=1e-9, atol=1e-9):
                raise BenchError("np.correlate baseline does not compute the same filter")
        units.append((call_s, t1 - t0, t2 - t1, tracer.enabled))
    if not wl.reuse_kernel:
        precompute_calls += len(units)
    tracer.enabled = trace

    layers = {}
    if trace:
        call_id = len(units)
        with tracer.span("count_proposed", "cost", call_id):
            cost = count_proposed(plan)
        layers.update(check_op_counts(wl, plan, kernel, inputs[-1], cost))
        validate_times = tracer.durations("validate_plan")
        if not validate_times:
            # Not part of this workload's set-up; timed once, outside the loop.
            with tracer.span("validate_plan", "plan", call_id):
                report = validate_plan(plan)
            if not report.ok:
                raise BenchError(f"validate_plan failed: {report.failures}")
            validate_times = tracer.durations("validate_plan")

    setup_scaled = [
        t * PROBE_REF_MS / _median(setup_probes[i : i + 2]) for i, t in enumerate(setup_times)
    ]
    plain = [i for i, u in enumerate(units) if not u[3]]
    calls = [units[i][0] for i in plain]
    scaled = [units[i][0] * PROBE_REF_MS / probes[i] for i in plain]
    outputs_per_call = wl.n - wl.m + 1
    e2e = {
        "setup_s": _median(setup_scaled),
        "outputs_per_s": outputs_per_call * len(scaled) / sum(scaled),
        "call_p50_ms": float(np.percentile(scaled, 50)) * 1e3,
        "call_p90_ms": float(np.percentile(scaled, 90)) * 1e3,
        "speedup_vs_naive": _median([units[i][1] / units[i][0] for i in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": _median(setup_times),
        "outputs_per_s": outputs_per_call * len(calls) / sum(calls),
        "call_p50_ms": float(np.percentile(calls, 50)) * 1e3,
        "call_p90_ms": float(np.percentile(calls, 90)) * 1e3,
    }

    if trace:
        traced_calls = [u[0] for u in units if u[3]]
        fir_times = tracer.durations("fir_filter")
        precompute_times = tracer.durations("precompute_diagonal")
        self_times = tracer.self_times()
        layers.update({
            "plan.generate_s": _median(tracer.durations("generate_plan")),
            "plan.validate_s": _median(validate_times),
            "plan.products": plan.p,
            "plan.a_pre_bytes": int(plan.a_pre.nbytes),
            "kernels.precompute_s": _median(precompute_times),
            "kernels.precompute_calls": precompute_calls,
            "stream.fir_filter_s": _median(fir_times),
            "stream.windows": windows_of(wl) * len(units),
            "stream.ns_per_window": _median(fir_times) / windows_of(wl) * 1e9,
            "cost.multipliers": cost.multipliers,
            "cost.scalar_additions": cost.scalar_additions,
            "reference.naive_fir_s": _median(tracer.durations("naive_fir")),
            "baseline.np_correlate_s": _median(tracer.durations("np.correlate")),
            "baseline.call_vs_correlate": _median([units[i][0] / units[i][2] for i in plain]),
            "host.probe_ms": _median(setup_probes + probes),
            "trace.overhead_ratio": _median(traced_calls) / _median(calls),
        })
        for layer in ("plan", "kernels", "stream", "reference", "cost", "baseline"):
            layers[f"{layer}.self_s"] = self_times.get(layer, 0.0)

    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_info(),
        "probe_ms": {"start": _median(setup_probes[:5]), "end": _median(probes[-5:]),
                     "median": _median(setup_probes + probes)},
        "units": len(units),
        "latency_samples": len(calls),
        "outputs_checked": checked,
        "outputs_failed": failed,
        "error_rate": failed / checked if checked else 1.0,
        "naive_fir_base_ms": _median([units[i][1] for i in plain]) * 1e3,
        "np_correlate_base_ms": _median([units[i][2] for i in plain]) * 1e3,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "per_layer": layers,
        "spans": tracer.spans,
    }
