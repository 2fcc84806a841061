"""Kernel micro-benchmarks: ceildyn's public step functions called directly.

These time the per-step kernels the span tracer leaves unwrapped.  Each
figure is the median of several batches.  The multiply-versus-reduce split
times bare Python integer operations on the operands of one W = 4096 step:
it is a primitive-level reference for what a cheaper reduction could save,
not time the program spends.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction


def _per_call_s(fn, batch: int, batches: int = 7) -> float:
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - start) / batch)
    return statistics.median(times)


def _deep_window(window, l: int, d: int, width: int, warm_steps: int):
    """A window holding `width` valid digits after warm_steps steps from l/d,
    so the residue fills the window as it does in a long run."""
    w = window.window_from_rational(l, d, width + warm_steps - 1)
    for _ in range(warm_steps):
        w = window.step_window(w)
    if w.valid_digits != width or w.integral:
        raise RuntimeError(f"warm-up of {l}/{d} did not leave a live W={width} window")
    return w


def run(window, multmaps) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    cases = (("W26", 7148, 3, 26, 4, 20_000), ("W1500", 200, 199, 1500, 16, 200),
             ("W4096", 200, 199, 4096, 16, 40))
    for label, l, d, width, warm, batch in cases:
        w = _deep_window(window, l, d, width, warm)
        seconds = _per_call_s(lambda: window.step_window(w), batch)
        out[f"window.step_window.us_per_step.{label}"] = (seconds * 1e6, "us")
        out[f"window.step_window.operand_bits.{label}"] = (w.scaled_residue.bit_length(), "bits")
        if label == "W4096":
            u = w.scaled_residue
            c = (u + (d - u % d) % d) // d
            mod = d ** (w.valid_digits - 1)
            product = u * c
            mul = _per_call_s(lambda: u * c, batch)
            red = _per_call_s(lambda: product % mod, batch)
            out["window.step_split.W4096.mul_us"] = (mul * 1e6, "us")
            out["window.step_split.W4096.mod_us"] = (red * 1e6, "us")
            out["window.step_split.W4096.mul_share"] = (mul / (mul + red), "ratio")
    m = multmaps.conjugate_g(Fraction(5, 4))
    depth = 8
    deeper = _per_call_s(lambda: multmaps.exceptional_sieve(m, depth), 1, 5)
    shallower = _per_call_s(lambda: multmaps.exceptional_sieve(m, depth - 1), 1, 5)
    out["multmaps.exceptional_sieve.s_per_level"] = (deeper - shallower, "s")
    return out
