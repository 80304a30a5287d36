"""End-to-end benchmark of frgc.encode_stream and frgc.decode_stream.

    python3 perfbench/run.py --workload fixed --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory and nothing is built.  One process and one thread drive a
closed loop: each stream of the workload's pool is encoded, then
decoded, one call at a time, round after round until the time is up.
Every decode is compared with its input; calls that raise or decode
wrongly count as failed.  Call times behind the gated throughputs, and
set-up times, are scaled to a fixed host speed measured by reference.py
around each of them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of an outside-in traced run (see spans.py).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Run details (environment, stream hashes, absent
entry points) go to the lines before it and to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
import warmup  # noqa: E402
import workloads  # noqa: E402

# Set-up probes per untraced run, spread evenly over its measured phase.
SETUP_REPEATS = 15
MIN_ROUNDS = 3
SHADOW_REPEATS = 3
PEAK_SAMPLES = 2
# The reference coder re-measures host speed before a call when its last
# measurement is older than this; every call is scaled by the mean of the
# measurements just before and just after it.
REFERENCE_INTERVAL_NS = 20_000_000
# A traced phase makes a tracer calibration pass (spans.Tracer.calibrate)
# before a call when the last pass is older than this.
CALIBRATION_INTERVAL_NS = 500_000_000

END_TO_END_UNITS = {
    "enc_msym_s": "Msym/s",
    "dec_msym_s": "Msym/s",
    "bits_per_sym": "bit/sym",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "codec.enc_self_ns": "ns/sym",
    "codec.dec_self_ns": "ns/sym",
    "codec.call_us": "us",
    "codec.header_bits_per_sym": "bit/sym",
    "codec.enc_peak_bytes_per_sym": "B/sym",
    "codec.dec_peak_bytes_per_sym": "B/sym",
    "codec.enc_p90_ms": "ms",
    "codec.dec_p90_ms": "ms",
    "codec.enc_calls": "count",
    "codec.dec_calls": "count",
    "qmap.round_ns": "ns/sym",
    "qmap.map_ns": "ns/sym",
    "qmap.unmap_ns": "ns/sym",
    "qmap.round_scalar_ns": "ns/sym",
    "backend.golomb_encode_ns": "ns/sym",
    "backend.golomb_decode_ns": "ns/sym",
    "backend.adaptive_encode_ns": "ns/sym",
    "backend.adaptive_decode_ns": "ns/sym",
    "bitcoder.decode_symbol_ns": "ns/sym",
    "bitcoder.payload_bits_per_sym": "bit/sym",
    "bitcoder.pad_bits_per_sym": "bit/sym",
    "estcore.select_ns": "ns/sym",
    "estcore.m_switches_per_ksym": "1/ksym",
    "estcore.m_distinct": "count",
    "predictor.fit_us": "us",
    "predictor.fits_per_ksym": "1/ksym",
    "predictor.predict_ns": "ns",
    "predictor.enc_ns": "ns/sym",
    "analysis.gap_pct": "%",
    "trace.overhead_pct": "%",
}

# Per-symbol span metrics: total span time over the symbols of the
# calls the span occurred in.
SPAN_NS_PER_SYM = {
    "qmap.round_ns": "qmap.round",
    "qmap.map_ns": "qmap.map",
    "qmap.unmap_ns": "qmap.unmap",
    "qmap.round_scalar_ns": "qmap.round_scalar",
    "backend.golomb_encode_ns": "backend.golomb_encode",
    "backend.golomb_decode_ns": "backend.golomb_decode",
    "backend.adaptive_encode_ns": "backend.adaptive_encode",
    "backend.adaptive_decode_ns": "backend.adaptive_decode",
    "bitcoder.decode_symbol_ns": "bitcoder.decode_symbol",
    "predictor.enc_ns": "predictor.lpc_predictions",
}


def load_program():
    """Import frgc from this checkout's src/, and nothing else."""
    package = SRC / "frgc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no frgc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import frgc

    if Path(frgc.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported frgc from {frgc.__file__}, "
                         f"not from {package}")
    return frgc


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(frgc, seed: int) -> dict:
    return {
        "backend": frgc.BACKEND_NAME,
        "FRGC_PURE": os.environ.get("FRGC_PURE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }


def mode_specs(pool) -> list[dict]:
    """One header spec per mode the pool uses, for the warm-up."""
    seen = {}
    for s in pool:
        key = (s.spec["mode"], s.spec.get("raw_error_estimator", False),
               s.spec.get("lpc") is not None)
        seen.setdefault(key, s.spec)
    return list(seen.values())


def setup_probe(specs):
    """A function that times one set-up: seconds from spawning an
    interpreter to its warm-up reporting ready.

    The host runs in slow and fast phases of seconds, so probes made back
    to back all land in one phase; the runner spreads them over its
    measured phase instead, and scales each by the reference measured
    just before and just after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "warmup.py"), json.dumps(specs)]

    def probe() -> float:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        return elapsed

    return probe


@dataclass
class Case:
    stream: workloads.Stream
    header: object
    n: int
    encoded: bytes | None = None
    # (start, end) perf_counter ns of each good call; after a phase, the
    # call times normalised to the reference's nominal speed.
    enc: list = field(default_factory=list)
    dec: list = field(default_factory=list)
    enc_norm: list = field(default_factory=list)
    dec_norm: list = field(default_factory=list)

    def clear(self) -> None:
        self.enc, self.dec, self.enc_norm, self.dec_norm = [], [], [], []


def durations(calls) -> list[int]:
    return [end - start for start, end in calls]


class Runner:
    """Closed-loop runner over one pool, counting every failed call.

    ``api`` is the frgc module; a test may pass an object whose
    encode_stream/decode_stream misbehave.
    """

    def __init__(self, api, pool, tracer: spans.Tracer | None = None,
                 setup_probe=None):
        self.api = api
        self.setup_probe = setup_probe
        # Set-up probe times: raw, and scaled to the reference's nominal speed.
        self.setup_raw_s: list[float] = []
        self.setup_s: list[float] = []
        self.cases = [Case(s, warmup.make_header(api, s.spec), int(s.xs.size))
                      for s in pool]
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference_ns: list[int] = []
        self._reference_at: list[int] = []
        self._calibrate_at = 0

    def _reference(self, force: bool = False) -> None:
        if (force or not self._reference_at
                or perf_counter_ns() - self._reference_at[-1] >= REFERENCE_INTERVAL_NS):
            self.reference_ns.append(reference.measure())
            self._reference_at.append(perf_counter_ns())

    def _normalise(self) -> None:
        """Scale each call by the reference measured around it."""
        at = np.asarray(self._reference_at)
        ref = np.asarray(self.reference_ns, dtype=np.float64)
        last = at.size - 1

        def scaled(calls):
            if not calls:
                return []
            start, end = np.asarray(calls).T
            before = np.clip(np.searchsorted(at, start, "right") - 1, 0, last)
            after = np.clip(np.searchsorted(at, end, "left"), 0, last)
            host = (ref[before] + ref[after]) / 2
            return ((end - start) * (reference.NOMINAL_NS / host)).tolist()

        for c in self.cases:
            c.enc_norm = scaled(c.enc)
            c.dec_norm = scaled(c.dec)

    @property
    def symbols(self) -> int:
        return sum(c.n for c in self.cases)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def _call(self, root: str, stream: int, fn, *args, **kwargs):
        if self.tracer is not None and perf_counter_ns() >= self._calibrate_at:
            self.tracer.calibrate()
            self._calibrate_at = perf_counter_ns() + CALIBRATION_INTERVAL_NS
        self._reference()
        t0 = perf_counter_ns()
        if self.tracer is None:
            out = fn(*args, **kwargs)
        else:
            with self.tracer.root(root, stream):
                out = fn(*args, **kwargs)
        return out, (t0, perf_counter_ns())

    def run_case(self, i: int) -> None:
        """Encode and decode case i once, recording times of good calls."""
        case = self.cases[i]
        s = case.stream
        self.attempted += 2
        try:
            data, t_enc = self._call("codec.encode", i, self.api.encode_stream,
                                     s.xs, case.header, predictions=s.predictions)
        except Exception:  # any raise is a failed call; keep running
            self._fail(f"{s.label}: encode raised\n{traceback.format_exc()}")
            self._fail(f"{s.label}: decode skipped")
            return
        if not isinstance(data, bytes):
            self._fail(f"{s.label}: encode returned {type(data).__name__}")
            self._fail(f"{s.label}: decode skipped")
            return
        if case.encoded is None:
            case.encoded = data
        if data != case.encoded:
            self._fail(f"{s.label}: encode is not deterministic")
        else:
            case.enc.append(t_enc)
        try:
            out, t_dec = self._call("codec.decode", i, self.api.decode_stream,
                                    data, predictions=s.predictions)
            ok = len(out) == case.n and np.array_equal(
                np.asarray(out, dtype=np.int64), s.xs)
        except Exception:  # any raise is a failed call; keep running
            self._fail(f"{s.label}: decode raised\n{traceback.format_exc()}")
            return
        if ok:
            case.dec.append(t_dec)
        else:
            self._fail(f"{s.label}: decode differs from the input")

    def run_phase(self, seconds: float, min_rounds: int) -> None:
        """Rounds over the pool until ``seconds`` pass and min_rounds are done.

        A traced phase also ends, after its first round, once the tracer's
        span buffer is full.  With a set-up probe, SETUP_REPEATS probes run
        between calls at even intervals; their time extends the deadline.
        """
        for c in self.cases:
            c.clear()
        self.reference_ns, self._reference_at = [], []
        self.setup_raw_s, self.setup_s = [], []
        gc.collect()
        start = time.perf_counter()
        deadline = start + seconds
        every = seconds / SETUP_REPEATS
        next_probe = start + every / 2
        rounds = 0  # completed
        while not self._phase_over(rounds, min_rounds, deadline):
            for i in range(len(self.cases)):
                if self._probes_due() and time.perf_counter() >= next_probe:
                    deadline += self._probe()
                    next_probe += every
                self.run_case(i)
                if self._phase_over(rounds, min_rounds, deadline):
                    break
            rounds += 1
        while self._probes_due():
            self._probe()
        self._reference(force=True)
        self._normalise()

    def _probes_due(self) -> bool:
        return (self.setup_probe is not None
                and len(self.setup_s) < SETUP_REPEATS)

    def _probe(self) -> float:
        """Run one set-up probe; the wall time it took the loop."""
        t0 = time.perf_counter()
        before = reference.measure()
        elapsed = self.setup_probe()
        host = (before + reference.measure()) / 2
        self.setup_raw_s.append(elapsed)
        self.setup_s.append(elapsed * reference.NOMINAL_NS / host)
        return time.perf_counter() - t0

    def _phase_over(self, rounds: int, min_rounds: int, deadline: float) -> bool:
        if rounds >= min_rounds and time.perf_counter() >= deadline:
            return True
        return rounds >= 1 and self.tracer is not None and self.tracer.full

    def stream_bytes(self) -> int:
        return sum(len(c.encoded) for c in self.cases if c.encoded is not None)

    def digest(self) -> str:
        h = hashlib.sha256()
        for c in self.cases:
            h.update(c.encoded or b"")
        return h.hexdigest()


def median_ns(samples) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def msym_per_s(cases, times) -> float:
    """Pool symbols over the summed per-stream median call times.

    0 when some stream never completed a good call.
    """
    if not all(times(c) for c in cases):
        return 0.0
    total_ns = sum(median_ns(times(c)) for c in cases)
    return sum(c.n for c in cases) / total_ns * 1e3


def end_to_end(runner: Runner) -> dict:
    """The gated figures; call times are at the reference's nominal speed."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "enc_msym_s": msym_per_s(runner.cases, lambda c: c.enc_norm),
        "dec_msym_s": msym_per_s(runner.cases, lambda c: c.dec_norm),
        "bits_per_sym": 8 * runner.stream_bytes() / runner.symbols,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        "setup_s": statistics.median(runner.setup_s),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def m_sequence(trace) -> list[int] | None:
    """The m of every symbol from a collect_trace result, if it has them."""
    try:
        ms = [int(entry[0]) for entry in trace]
    except (TypeError, IndexError, ValueError):
        return None
    return ms or None


def estimator_stats(runner: Runner) -> tuple[dict, dict[int, int]]:
    """m switches and distinct m over adaptive streams; modal m per stream."""
    switches = symbols = 0
    distinct = []
    modal = {}
    for i, c in enumerate(runner.cases):
        if c.stream.spec["mode"] != "adaptive":
            continue
        try:
            result = runner.api.encode_stream(c.stream.xs, c.header,
                                              predictions=c.stream.predictions,
                                              collect_trace=True)
        except TypeError:  # collect_trace is gone: no m figures
            break
        ms = m_sequence(result[1]) if isinstance(result, tuple) else None
        if ms is None:
            continue
        switches += sum(a != b for a, b in zip(ms, ms[1:]))
        symbols += len(ms)
        distinct.append(len(set(ms)))
        modal[i] = Counter(ms).most_common(1)[0][0]
    stats = {
        "estcore.m_switches_per_ksym": 1e3 * switches / symbols if symbols else 0.0,
        "estcore.m_distinct": statistics.mean(distinct) if distinct else 0.0,
    }
    return stats, modal


def peak_bytes(runner: Runner) -> dict:
    """tracemalloc peak of one encode and one decode, per symbol."""
    cases = runner.cases[::max(1, len(runner.cases) // PEAK_SAMPLES)][:PEAK_SAMPLES]
    enc = dec = symbols = 0
    tracemalloc.start()
    try:
        for c in cases:
            s = c.stream
            tracemalloc.reset_peak()
            data = runner.api.encode_stream(s.xs, c.header, predictions=s.predictions)
            enc += tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            out = runner.api.decode_stream(data, predictions=s.predictions)
            dec += tracemalloc.get_traced_memory()[1]
            del data, out
            symbols += c.n
    finally:
        tracemalloc.stop()
    return {"codec.enc_peak_bytes_per_sym": enc / symbols,
            "codec.dec_peak_bytes_per_sym": dec / symbols}


def shadow_fixed(runner: Runner, modal: dict[int, int]) -> dict[int, int]:
    """Traced fixed-mode encodes of adaptive streams at their modal m.

    Their roots get stream ids past the pool, so the pool's layer figures
    stay apart; returns the shadow stream id of each pool index.
    """
    tracer = runner.tracer
    ids = {}
    for k, (i, m) in enumerate(sorted(modal.items())):
        c = runner.cases[i]
        spec = dict(c.stream.spec, mode="fixed", m=m, raw_error_estimator=False)
        header = warmup.make_header(runner.api, spec)
        sid = len(runner.cases) + k
        ids[i] = sid
        for _ in range(SHADOW_REPEATS):
            with tracer.root("codec.encode", sid):
                runner.api.encode_stream(c.stream.xs, header,
                                         predictions=c.stream.predictions)
    return ids


def layer_metrics(frgc, runner: Runner, table: dict, figures: dict,
                  shadows: dict[int, int]) -> dict:
    """Per-layer figures from the spans, merged with those measured apart."""
    tracer = runner.tracer
    names = tracer.names
    index = {name: k for k, name in enumerate(names)}
    cases = runner.cases
    ncases = len(cases)
    n_of = np.array([c.n for c in cases] + [cases[i].n for i in sorted(shadows)],
                    dtype=np.int64)
    stream, name, call = table["stream"], table["name"], table["call"]
    dur, self_ns = table["dur"], table["self_net"]
    pool = stream < ncases

    def of(span: str, rows=pool):
        return rows & (name == index[span])

    def symbols_through(mask) -> int:
        if not mask.any():
            return 0
        _, first = np.unique(call[mask], return_index=True)
        return int(n_of[stream[mask][first]].sum())

    def per_sym(total, mask) -> float:
        syms = symbols_through(mask)
        return float(total) / syms if syms else 0.0

    def per_call(mask, scale=1.0) -> float:
        return float(dur[mask].mean()) / scale if mask.any() else 0.0

    out = {}
    enc_roots, dec_roots = of("codec.encode"), of("codec.decode")
    out["codec.enc_self_ns"] = per_sym(self_ns[enc_roots].sum(), enc_roots)
    out["codec.dec_self_ns"] = per_sym(self_ns[dec_roots].sum(), dec_roots)
    for metric, span in SPAN_NS_PER_SYM.items():
        mask = of(span)
        out[metric] = per_sym(dur[mask].sum(), mask)
    fits = of("predictor.fit")
    out["predictor.fit_us"] = per_call(fits, 1e3)
    out["predictor.fits_per_ksym"] = 1e3 * per_sym(fits.sum(), fits)
    out["predictor.predict_ns"] = per_call(of("predictor.predict"))

    # Payload figures come from the backend encode's return value.
    counts = tracer.counts
    enc_calls = np.bincount(stream[enc_roots], minlength=ncases)
    payload_bits = pad_bits = header_bits = 0.0
    probed_syms = 0
    gap_bits = gap_model = 0.0
    for i, c in enumerate(cases):
        calls = enc_calls[i]
        bits = counts.get((i, "payload_bits"))
        nbytes = counts.get((i, "payload_bytes"))
        if not calls or bits is None or nbytes is None:
            continue
        bits, nbytes = bits / calls, nbytes / calls
        payload_bits += bits
        pad_bits += 8 * nbytes - bits
        header_bits += 8 * (len(c.encoded) - nbytes)
        probed_syms += c.n
        spec = c.stream.spec
        if spec["mode"] == "fixed" and c.stream.theta is not None:
            prec = frgc.Precision(spec["rho"], spec["tau"])
            gap_bits += bits
            gap_model += c.n * frgc.avg_code_length(spec["m"], c.stream.theta, prec)
    out["bitcoder.payload_bits_per_sym"] = payload_bits / probed_syms if probed_syms else 0.0
    out["bitcoder.pad_bits_per_sym"] = pad_bits / probed_syms if probed_syms else 0.0
    out["codec.header_bits_per_sym"] = header_bits / probed_syms if probed_syms else 0.0
    out["analysis.gap_pct"] = 100.0 * (gap_bits / gap_model - 1.0) if gap_model else 0.0

    # Estimator cost: adaptive backend time minus fixed backend time at
    # the stream's modal m, both per stream medians of traced calls.
    select_ns = 0.0
    select_syms = 0
    for i, sid in shadows.items():
        adaptive = dur[of("backend.adaptive_encode") & (stream == i)]
        fixed = dur[(stream == sid) & (name == index["backend.golomb_encode"])]
        if adaptive.size and fixed.size:
            select_ns += float(np.median(adaptive)) - float(np.median(fixed))
            select_syms += cases[i].n
    out["estcore.select_ns"] = select_ns / select_syms if select_syms else 0.0

    out.update(figures)
    return {name: out[name] for name in PER_LAYER_UNITS}


def traced_overhead(untraced_cases, traced_cases) -> float:
    u = sum(median_ns(a) + median_ns(b) for a, b in untraced_cases)
    t = sum(median_ns(c.enc_norm) + median_ns(c.dec_norm) for c in traced_cases)
    return 100.0 * (t / u - 1.0) if u else 0.0


def latency_figures(cases) -> dict:
    enc = [t for c in cases for t in durations(c.enc)]
    dec = [t for c in cases for t in durations(c.dec)]
    per_case = [median_ns(durations(c.enc)) + median_ns(durations(c.dec))
                for c in cases]
    return {
        "codec.call_us": sum(per_case) / (2 * len(cases)) / 1e3,
        "codec.enc_p90_ms": float(np.percentile(enc, 90)) / 1e6 if enc else 0.0,
        "codec.dec_p90_ms": float(np.percentile(dec, 90)) / 1e6 if dec else 0.0,
        "codec.enc_calls": len(enc),
        "codec.dec_calls": len(dec),
    }


def traced_run(frgc, runner: Runner, seconds: float, out_stem: Path) -> dict:
    """Untraced half, then a traced half; layer metrics from the spans."""
    runner.run_phase(seconds / 2, MIN_ROUNDS)
    untraced = [(c.enc_norm, c.dec_norm) for c in runner.cases]
    figures = latency_figures(runner.cases)
    est, modal = estimator_stats(runner)
    figures.update(est)
    figures.update(peak_bytes(runner))

    tracer = spans.Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        runner.run_phase(seconds / 2, 1)
        shadows = shadow_fixed(runner, modal)
    finally:
        tracer.uninstall()
    figures["trace.overhead_pct"] = traced_overhead(untraced, runner.cases)
    table = tracer.table()
    tracer.save(out_stem.with_name(out_stem.name + "-spans.npz"))
    metrics = layer_metrics(frgc, runner, table, figures, shadows)
    if tracer.absent:
        print(f"absent entry points (0 calls): {', '.join(tracer.absent)}")
    print(f"spans recorded: {tracer.n_spans}, tracer cost taken from parent "
          f"self time: {tracer.overhead_ns:.0f} ns per child span")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        p.error("--seed must be in [0, 2**64)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    frgc = load_program()
    workload = workloads.WORKLOADS[args.workload]
    pool = workload.generate(args.seed)
    specs = mode_specs(pool)
    warmup.warm_up(frgc, specs)
    # Set-up time is an end-to-end figure; the traced run skips it.
    runner = Runner(frgc, pool,
                    setup_probe=None if args.trace else setup_probe(specs))
    env = environment(frgc, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-trace{args.trace}"

    if args.trace:
        metrics = traced_run(frgc, runner, args.seconds, stem)
        units = PER_LAYER_UNITS
    else:
        runner.run_phase(args.seconds, MIN_ROUNDS)
        metrics = end_to_end(runner)
        units = END_TO_END_UNITS
    # Stream size, which both kinds of run share, and un-normalised
    # figures of the last phase, for reading against the normalised ones.
    host = {
        "bits_per_sym": 8 * runner.stream_bytes() / runner.symbols,
        "reference_ns_median": statistics.median(runner.reference_ns),
        "reference_nominal_ns": reference.NOMINAL_NS,
        "raw_enc_msym_s": msym_per_s(runner.cases, lambda c: durations(c.enc)),
        "raw_dec_msym_s": msym_per_s(runner.cases, lambda c: durations(c.dec)),
    }
    if runner.setup_raw_s:
        host["raw_setup_s"] = statistics.median(runner.setup_raw_s)

    fail_frac = runner.failed / runner.attempted
    report = {
        "workload": workload.name,
        "why": workload.why,
        "env": env,
        "streams": len(runner.cases),
        "symbols": runner.symbols,
        "streams_sha256": runner.digest(),
        "fail_frac": fail_frac,
        "attempted": runner.attempted,
        "setup_s_samples": runner.setup_s,
        "setup_s_raw_samples": runner.setup_raw_s,
        "host": host,
        "errors": runner.errors,
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")
    for err in runner.errors:
        print(err, file=sys.stderr)
    print(json.dumps({"env": env, "streams_sha256": report["streams_sha256"],
                      "host": host}))
    print(f"fail_frac {fail_frac} (attempted {runner.attempted})")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
