"""Arithmetic of the benchmark: statistics, /proc parsing, span self time,
request streams and input digests. run.py does the orchestration; this
module holds everything test_benchlib.py checks."""

import bisect
import collections
import hashlib
import math
import random
import statistics
import struct


# ---- statistics -------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    # The tolerance keeps binary rounding (99.9 / 100 * 1000 is a hair
    # above 999) from bumping the rank.
    rank = max(1, math.ceil(p * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1]


def beyond(values, threshold):
    """Number of samples strictly above `threshold`."""
    return sum(1 for v in values if v > threshold)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median (at least two
    values)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


# ---- /proc ------------------------------------------------------------------

def cpu_line(stat_text):
    """(total, steal) jiffies of the aggregate `cpu` line of /proc/stat.
    Total counts user..steal; guest time is already inside user."""
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            values = [int(v) for v in fields[1:]]
            values += [0] * (8 - len(values))
            return sum(values[:8]), values[7]
    raise ValueError("no aggregate cpu line in /proc/stat")


def steal_share(stat_begin, stat_end):
    """Share of all CPU time between two /proc/stat samples that the
    hypervisor stole."""
    total0, steal0 = cpu_line(stat_begin)
    total1, steal1 = cpu_line(stat_end)
    if total1 <= total0:
        return 0.0
    return (steal1 - steal0) / (total1 - total0)


def process_cpu_ticks(pid_stat_text):
    """utime + stime, in clock ticks, from /proc/<pid>/stat. The command
    name may hold spaces and parentheses, so fields are counted from the
    last ')'."""
    rest = pid_stat_text[pid_stat_text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(rest[11]) + int(rest[12])


def vm_hwm_kib(status_text):
    """Peak resident set size (VmHWM) in KiB from /proc/<pid>/status."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM in /proc/<pid>/status")


# ---- slices of the timed window ---------------------------------------------

def even_split(count, n):
    """Sizes of n slices of `count` items: slice j holds items
    [j*count//n, (j+1)*count//n)."""
    return [(j + 1) * count // n - j * count // n for j in range(n)]


def window_slices(samples, work, clk_tck):
    """One dict per slice between consecutive /proc samples (dicts with
    wall_ns, pid_stat and stat): its work, wall seconds, CPU seconds of the
    measured process and steal share."""
    slices = []
    for a, b, w in zip(samples, samples[1:], work):
        slices.append({
            "work": w,
            "seconds": (b["wall_ns"] - a["wall_ns"]) / 1e9,
            "cpu_s": (process_cpu_ticks(b["pid_stat"]) -
                      process_cpu_ticks(a["pid_stat"])) / clk_tck,
            "steal": steal_share(a["stat"], b["stat"]),
        })
    return slices


def drift(slices):
    """Throughput of the second half of the slices over that of the first
    half (the middle slice of an odd count is in neither); 1.0 means no
    trend across the window."""
    half = len(slices) // 2

    def rate(part):
        return sum(s["work"] for s in part) / sum(s["seconds"] for s in part)
    return rate(slices[-half:]) / rate(slices[:half])


# ---- spans ------------------------------------------------------------------

SPAN_RECORD = struct.Struct("<HHiqqq")  # name, pad, parent, unit, begin, end

# A tuple, not a dict: a traced run holds about a million of them.
Span = collections.namedtuple("Span", "name parent unit begin end")


def read_spans(data, names):
    """Decodes perfbench's binary span records."""
    return [Span(names[name], parent, unit, begin, end)
            for name, _, parent, unit, begin, end
            in SPAN_RECORD.iter_unpack(data)]


def covered(interval, children):
    """Length of the part of `interval` that the union of `children`
    intervals covers."""
    lo, hi = interval
    total = 0
    cursor = lo
    for begin, end in sorted(children):
        begin, end = max(begin, cursor), min(end, hi)
        if end > begin:
            total += end - begin
            cursor = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.begin, span.end))
    return [(s.end - s.begin) - covered((s.begin, s.end), c)
            for s, c in zip(spans, children)]


# ---- inputs -----------------------------------------------------------------

def uniform_stream(num_users, count, seed):
    rng = random.Random(seed)
    return [rng.randrange(num_users) for _ in range(count)]


def zipf_stream(num_users, count, exponent, seed):
    """Users drawn with P(rank r) ~ 1 / r^exponent over a seeded random
    mapping from rank to user id."""
    rng = random.Random(seed)
    order = list(range(num_users))
    rng.shuffle(order)
    cumulative = []
    acc = 0.0
    for r in range(1, num_users + 1):
        acc += 1.0 / r ** exponent
        cumulative.append(acc)
    picks = []
    for _ in range(count):
        idx = bisect.bisect_left(cumulative, rng.random() * acc)
        picks.append(order[min(idx, num_users - 1)])
    return picks


def stream_bytes(users):
    return struct.pack("<%dI" % len(users), *users)


def digest(chunks):
    """SHA-256 over a sequence of byte strings, each length-prefixed."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(struct.pack("<Q", len(chunk)))
        h.update(chunk)
    return h.hexdigest()


def read_latencies(data):
    """perfbench load's per-request round trips: little-endian i64 ns."""
    return struct.unpack("<%dq" % (len(data) // 8), data)


# ---- per-layer metrics ------------------------------------------------------

TRAIN_LAYER_SPANS = ("core.epoch_begin", "data.sample_batch",
                     "models.build_loss", "autograd.backward", "optim.step")
SERVE_LAYER_SPANS = ("serve.acquire", "serve.cache_get", "serve.executor",
                     "serve.cache_put", "serve.scores", "serve.reload")


def coverage(spans, names, windows):
    """Share of the traced windows (a flat [begin, end, begin, end, ...]
    list of ns) spent inside spans named in `names`; those spans do not
    overlap one another."""
    pairs = list(zip(windows[0::2], windows[1::2]))
    inside = sum(s.end - s.begin for s in spans if s.name in names
                 and any(b <= s.begin < e for b, e in pairs))
    return inside / sum(e - b for b, e in pairs)


def layer_metrics(spans, result, primary):
    """Per-layer metrics of one traced run: medians of span self times and
    the counts perfbench trace reports. `primary` ("train" or "serve") picks
    which dataset load stands for data.load_dataset_ms."""
    selfs = self_times(spans)
    by_name = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span.name, []).append(own)

    def med(name, per):
        return median(by_name[name]) / per

    train, serve = result["train"], result["serve"]
    work = train["kernel_work"]
    m = {
        "data.load_dataset_ms": med("data.load_dataset." + primary, 1e6),
        "models.init_ms": med("models.init", 1e6),
        "data.sample_batch_us": med("data.sample_batch", 1e3),
        "models.build_loss_ms": med("models.build_loss", 1e6),
        "autograd.backward_ms": med("autograd.backward", 1e6),
        "optim.step_ms": med("optim.step", 1e6),
        "core.epoch_begin_ms": med("core.epoch_begin", 1e6),
        "autograd.allocs_per_batch": median(train["allocs_per_batch"]),
        "autograd.alloc_mb_per_batch":
            median(train["alloc_bytes_per_batch"]) / 2 ** 20,
        # work per nanosecond: flops/ns is GFLOP/s, elements/ns is Gelem/s.
        "tensor.gemm_fwd_gflops":
            work["tensor.gemm_fwd"] / med("tensor.gemm_fwd", 1),
        "tensor.gemm_wgrad_gflops":
            work["tensor.gemm_wgrad"] / med("tensor.gemm_wgrad", 1),
        "tensor.gemm_dgrad_gflops":
            work["tensor.gemm_dgrad"] / med("tensor.gemm_dgrad", 1),
        "tensor.tanh_melem_per_s":
            work["tensor.tanh"] / med("tensor.tanh", 1) * 1e3,
        "graph.spmm_gflops": work["graph.spmm"] / med("graph.spmm", 1),
        "graph.spmm_t_gflops": work["graph.spmm_t"] / med("graph.spmm_t", 1),
        "serve.load_snapshot_ms": med("serve.load_snapshot", 1e6),
        "serve.manager_create_ms": med("serve.manager_create", 1e6),
        "serve.engine_topk_us": med("serve.engine_topk", 1e3),
        "serve.executor_us": med("serve.executor", 1e3),
        "serve.cache_get_us": med("serve.cache_get", 1e3),
        "serve.cache_put_us": med("serve.cache_put", 1e3),
        "serve.cache_hit_ratio": serve["timed_hits"] / serve["timed_lookups"],
        "serve.acquire_ns": med("serve.acquire", 1),
        "serve.reload_ms": med("serve.reload", 1e6),
        "serve.post_swap_misses": median(serve["post_swap_misses"]),
        "net.codec_ns": med("net.codec", 1),
        "net.roundtrip_us": med("net.roundtrip", 1e3),
    }
    per_batch_ms = train["ref_seconds"] / train["ref_batches"] * 1e3
    m["models.trainer_residual_ms"] = per_batch_ms - (
        m["data.sample_batch_us"] / 1e3 + m["models.build_loss_ms"] +
        m["autograd.backward_ms"] + m["optim.step_ms"])
    # Wire overhead: the live round trip minus the whole in-process request
    # path (on a cache-heavy stream the executor runs only on misses).
    request_us = median([s.end - s.begin for s in spans
                         if s.name == "serve.request"]) / 1e3
    m["net.wire_overhead_us"] = m["net.roundtrip_us"] - request_us
    # Tracing overhead: work per CPU-second of the process, traced over
    # untraced, for the same loop.
    m["trace.train_throughput_ratio"] = (
        (train["traced_samples"] / train["traced_cpu_s"]) /
        (train["untraced_samples"] / train["untraced_cpu_s"]))
    m["trace.serve_throughput_ratio"] = (serve["untraced_cpu_s"] /
                                         serve["traced_cpu_s"])
    m["trace.train_span_coverage"] = coverage(
        spans, TRAIN_LAYER_SPANS, train["traced_windows_ns"])
    m["trace.serve_span_coverage"] = coverage(
        spans, SERVE_LAYER_SPANS, serve["traced_windows_ns"])
    return m
