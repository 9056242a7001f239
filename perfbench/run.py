#!/usr/bin/env python3
"""HOSR benchmark: training throughput and TCP serving, end to end and
per layer. Run from the repository root:

    python3 perfbench/run.py --workload train_hosr --seed 1 --seconds 10 \\
        --trace 0

It builds the repository's libraries, the shipped hosr_serve and the
perfbench binary into .bench_build/, generates the workload's inputs from
--seed, runs the workload and prints a run record followed, as the last
line, by one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Exits non-zero on a failed output check. See perfbench/README.md."""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SERVER_WORKERS = 2
SETUP_REPS = 9

# Work per run is fixed by --seconds times a nominal rate for each
# workload, never by a clock, so a faster program finishes the same work
# sooner and cache contents and RSS repeat from run to run.
TRAIN = {
    "train_hosr": {"model": "HOSR", "scale": 0.2, "lr": 0.001,
                   "sparse_steps": 0, "nominal_epoch_s": 2.0,
                   "traced_epochs": 2},
    "train_bpr_sparse": {"model": "BPR", "scale": 0.6, "lr": 0.01,
                         "sparse_steps": 1, "nominal_epoch_s": 0.25,
                         "traced_epochs": 4},
}
SERVE = {
    # Cache of ~1/10 of the users: the engine runs on almost every request.
    "serve_uniform": {"zipf": None, "cache_share": 0.1, "publishes": 0,
                      "nominal_qps": 6000, "trace_warmup": 2000,
                      "trace_requests": 6000, "rt_warmup": 1000,
                      "rt_requests": 3000},
    # Default cache, zipf-0.9 users, snapshot publishes mid-stream.
    "serve_zipf_reload": {"zipf": 0.9, "cache_share": None, "publishes": 2,
                          "nominal_qps": 50000, "trace_warmup": 40000,
                          "trace_requests": 60000, "rt_warmup": 20000,
                          "rt_requests": 20000},
}
WARMUP_S = 2.5  # clears the wake-up ramp seen after idle
PAPER_SCALE = 1.0  # YelpLike at the paper's Table 2 size

END_TO_END_UNITS = {
    "ops_per_cpu_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "data.load_dataset_ms": "ms", "models.init_ms": "ms",
    "data.sample_batch_us": "us", "models.build_loss_ms": "ms",
    "autograd.backward_ms": "ms", "optim.step_ms": "ms",
    "core.epoch_begin_ms": "ms", "models.trainer_residual_ms": "ms",
    "autograd.allocs_per_batch": "count", "autograd.alloc_mb_per_batch": "MiB",
    "tensor.gemm_fwd_gflops": "GFLOP/s", "tensor.gemm_wgrad_gflops": "GFLOP/s",
    "tensor.gemm_dgrad_gflops": "GFLOP/s", "tensor.tanh_melem_per_s": "Melem/s",
    "graph.spmm_gflops": "GFLOP/s", "graph.spmm_t_gflops": "GFLOP/s",
    "serve.load_snapshot_ms": "ms", "serve.manager_create_ms": "ms",
    "serve.engine_topk_us": "us", "serve.executor_us": "us",
    "serve.cache_get_us": "us", "serve.cache_put_us": "us",
    "serve.cache_hit_ratio": "ratio", "serve.acquire_ns": "ns",
    "serve.reload_ms": "ms", "serve.post_swap_misses": "count",
    "net.codec_ns": "ns", "net.roundtrip_us": "us",
    "net.wire_overhead_us": "us", "trace.train_throughput_ratio": "ratio",
    "trace.train_span_coverage": "ratio",
    "trace.serve_throughput_ratio": "ratio",
    "trace.serve_span_coverage": "ratio",
}


class CheckFailed(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def record(message):
    """One line of the run record, printed before the result."""
    print("# " + message, flush=True)


def run(cmd, timeout, cpus=None):
    """Runs a child to completion with its output on stderr."""
    def pin():
        if cpus:
            os.sched_setaffinity(0, cpus)
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            preexec_fn=pin)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise CheckFailed("timed out: %s" % " ".join(map(str, cmd[:2])))
    if rc != 0:
        raise CheckFailed("exit %d: %s" % (rc, " ".join(map(str, cmd))))


# ---- build ------------------------------------------------------------------

def build(out):
    for needed in ("CMakeLists.txt", "src", "tools/hosr_serve.cpp"):
        if not (REPO / needed).exists():
            raise SystemExit("perfbench: %s not found; run from a checkout "
                             "of the repository" % (REPO / needed))
    out.mkdir(parents=True, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (out / "CMakeCache.txt").exists():
        run(["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"] + generator, timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", str(out), "--target", "perfbench",
         "hosr_serve_bin", "-j", jobs], timeout=850)
    return out / "perfbench", out / "hosr" / "tools" / "hosr_serve"


# ---- inputs -----------------------------------------------------------------

class Inputs:
    """Input files for one seed, generated once and reused."""

    def __init__(self, root, perfbench, seed):
        self.root = root / "inputs"
        self.perfbench = perfbench
        self.seed = seed

    def _make(self, name, generate):
        path = self.root / name
        if not path.exists():
            tmp = self.root / (name + ".tmp%d" % os.getpid())
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            generate(tmp)
            os.rename(tmp, path)
        return path

    def dataset(self, scale):
        return self._make(
            "yelp%s-s%d" % (scale, self.seed),
            lambda d: run([self.perfbench, "gen-data", "--out=%s" % d,
                           "--scale=%s" % scale, "--seed=%d" % self.seed],
                          timeout=120))

    def snapshots(self, data):
        """Snapshots A and B of HOSR d=64 over `data`; they share the data
        and differ only in model seed."""
        def generate(d):
            for tag, offset in (("a", 1), ("b", 2)):
                run([self.perfbench, "gen-snapshot", "--data=%s" % data,
                     "--out=%s" % (d / ("snap_%s.bin" % tag)),
                     "--model_seed=%d" % (2 * self.seed + offset)],
                    timeout=120)
        path = self._make(data.name + "-snapshots", generate)
        return path / "snap_a.bin", path / "snap_b.bin"


def file_digest(paths, extra=()):
    chunks = []
    for path in paths:
        path = Path(path)
        files = sorted(path.iterdir()) if path.is_dir() else [path]
        chunks += [f.read_bytes() for f in files]
    return benchlib.digest(chunks + list(extra))


def make_stream(spec, num_users, count, seed):
    if spec["zipf"] is None:
        return benchlib.uniform_stream(num_users, count, seed)
    return benchlib.zipf_stream(num_users, count, spec["zipf"], seed)


def num_users_of(data):
    for line in (data / "meta.tsv").read_text().splitlines():
        fields = line.split("\t")
        if fields[0] == "num_users":
            return int(fields[1])
    raise CheckFailed("no num_users in %s/meta.tsv" % data)


# ---- host record ------------------------------------------------------------

def host_record(dispatch):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    record("host: nproc=%d allowed_cpus=%d cpu=%r dispatch=%s" % (
        os.cpu_count() or 0, len(os.sched_getaffinity(0)), model, dispatch))


def measure_window(samples, work):
    """(slices, work per CPU-second of the measured process) of the timed
    window, from the /proc samples at its slice boundaries. Prints the
    window's record, wall-clock throughput included: it tracks host steal
    too closely to be gated (see README.md)."""
    slices = benchlib.window_slices(samples, work, os.sysconf("SC_CLK_TCK"))
    total = sum(s["work"] for s in slices)
    seconds = sum(s["seconds"] for s in slices)
    rates = [s["work"] / s["seconds"] for s in slices]
    record("window: %.3f s, throughput %.1f/s (not gated), %d slices with a "
           "throughput spread of %.4f, steal share %.4f (largest in one slice "
           "%.4f), drift (2nd-half / 1st-half throughput) %.4f" % (
               seconds, total / seconds, len(slices), benchlib.spread(rates),
               benchlib.steal_share(samples[0]["stat"], samples[-1]["stat"]),
               max(s["steal"] for s in slices), benchlib.drift(slices)))
    return slices, total / sum(s["cpu_s"] for s in slices)


# ---- training ---------------------------------------------------------------

def train_flags(name, data, seed):
    spec = TRAIN[name]
    return ["--data=%s" % data, "--model=%s" % spec["model"],
            "--lr=%s" % spec["lr"], "--sparse_steps=%d" % spec["sparse_steps"],
            "--seed=%d" % seed, "--setup_reps=%d" % SETUP_REPS]


def run_train(name, ctx):
    spec = TRAIN[name]
    data = ctx.inputs.dataset(spec["scale"])
    record("inputs: %s digest=%s" % (data.name, file_digest([data])))
    epochs = max(2, round(ctx.seconds / spec["nominal_epoch_s"]))
    out = ctx.tmp / "train.json"
    run([ctx.perfbench, "train"] + train_flags(name, data, ctx.seed) +
        ["--epochs=%d" % epochs, "--out=%s" % out], timeout=170)
    r = json.loads(out.read_text())
    host_record(r["dispatch"])
    samples = sum(r["epoch_samples"])
    slices, per_cpu = measure_window(r["slices"], r["epoch_samples"])
    record("epochs: %d x %d samples, median %.3f s (not gated), loss %.4f -> "
           "%.4f, Recall@20 %.4f before training, %.4f after" % (
               len(slices), r["epoch_samples"][0],
               benchlib.median([s["seconds"] for s in slices]),
               r["warmup_loss"][0],
               r["epoch_loss"][-1], r["recall_before"], r["recall_after"]))
    losses = r["warmup_loss"] + r["epoch_loss"]
    bad = sum(1 for v in losses if v is None or v != v)
    if bad:
        ctx.fail("%d epoch losses are not finite" % bad)
    if not r["recall_after"] > r["recall_before"]:
        ctx.fail("Recall@20 %.4f after training does not beat %.4f before" %
                 (r["recall_after"], r["recall_before"]))
    ctx.attempted, ctx.failed = int(samples), bad
    return {
        "ops_per_cpu_s": per_cpu,
        "setup_s": benchlib.median(r["setup_s"]),
        "peak_rss_mb": benchlib.vm_hwm_kib(r["status"]) / 1024.0,
    }


# ---- serving ----------------------------------------------------------------

class Server:
    """A pinned hosr_serve process; `setup_s` is spawn to --port_file."""

    def __init__(self, ctx, spec, snapshot, data, tag):
        self.port_file = ctx.tmp / ("port-%s" % tag)
        self.summary = ctx.tmp / ("summary-%s.json" % tag)
        cmd = [ctx.hosr_serve, "--snapshot=%s" % snapshot, "--data=%s" % data,
               "--port=0", "--port_file=%s" % self.port_file,
               "--workers=%d" % SERVER_WORKERS,
               "--summary_out=%s" % self.summary]
        if spec["cache_share"] is not None:
            cmd.append("--cache_capacity=%d" %
                       max(1, int(num_users_of(data) * spec["cache_share"])))
        if spec["publishes"]:
            cmd.append("--reload_watch=1")
        cpus = ctx.server_cpus
        self.errors = open(ctx.tmp / ("server-%s.log" % tag), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=self.errors,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus
            else None)
        ctx.children.append(self)
        deadline = start + 60
        while not self.port_file.exists():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.errors.flush()
                raise CheckFailed("hosr_serve did not start: %s" % Path(
                    self.errors.name).read_text(errors="replace")[-500:])
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - start
        self.port = int(self.port_file.read_text().strip())

    def status(self):
        return Path("/proc/%d/status" % self.proc.pid).read_text()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.errors.close()
        return self.proc.returncode


def serve_inputs(ctx):
    data = ctx.inputs.dataset(PAPER_SCALE)
    snap_a, snap_b = ctx.inputs.snapshots(data)
    return data, snap_a, snap_b


def start_server(ctx, spec, snap_a, data):
    """Starts the server SETUP_REPS times and keeps the last one; returns
    it with the median set-up time. The served path is a copy of snapshot
    A that publishes replace."""
    served = ctx.tmp / "served.snap"
    shutil.copyfile(snap_a, served)
    times = []
    for rep in range(SETUP_REPS):
        server = Server(ctx, spec, served, data, str(rep))
        times.append(server.setup_s)
        if rep + 1 < SETUP_REPS:
            server.stop()
    return server, served, benchlib.median(times)


def publish_positions(spec, warmup, timed):
    m = spec["publishes"]
    return [warmup + timed * (j + 1) // (m + 1) for j in range(m)]


def run_serve(name, ctx):
    spec = SERVE[name]
    data, snap_a, snap_b = serve_inputs(ctx)
    users = num_users_of(data)
    warmup = int(WARMUP_S * spec["nominal_qps"])
    timed = int(ctx.seconds * spec["nominal_qps"])
    stream = make_stream(spec, users, warmup + timed, ctx.seed)
    raw = benchlib.stream_bytes(stream)
    (ctx.tmp / "stream.bin").write_bytes(raw)
    record("inputs: %s + snapshots A/B, %d requests (%d warm-up) digest=%s" % (
        data.name, len(stream), warmup,
        file_digest([data, snap_a, snap_b], [raw])))

    server, served, setup_s = start_server(ctx, spec, snap_a, data)
    publish_at = publish_positions(spec, warmup, timed)
    out, lat = ctx.tmp / "load.json", ctx.tmp / "lat.bin"
    cmd = [ctx.perfbench, "load", "--port=%d" % server.port,
           "--server_pid=%d" % server.proc.pid,
           "--stream=%s" % (ctx.tmp / "stream.bin"), "--warmup=%d" % warmup,
           "--data=%s" % data,
           "--snap_a=%s" % snap_a, "--out=%s" % out, "--lat_out=%s" % lat,
           "--all_cpus=%s" % ",".join(map(str, sorted(ctx.all_cpus)))]
    if publish_at:
        cmd += ["--snap_b=%s" % snap_b, "--publish_path=%s" % served,
                "--publish_at=%s" % ",".join(map(str, publish_at))]
    run(cmd, timeout=150, cpus=ctx.load_cpus)
    peak_kib = benchlib.vm_hwm_kib(server.status())
    rc = server.stop()
    if rc != 0:
        ctx.fail("hosr_serve exited with %d" % rc)
    summary = json.loads(server.summary.read_text())
    r = json.loads(out.read_text())
    host_record(r["dispatch"])

    sizes = benchlib.even_split(r["timed"], len(r["slices"]) - 1)
    _, per_cpu = measure_window(r["slices"], sizes)
    lat_us = [v / 1e3 for v in benchlib.read_latencies(lat.read_bytes())]
    p50, p90 = benchlib.percentile(lat_us, 50), benchlib.percentile(lat_us, 90)
    p99 = benchlib.percentile(lat_us, 99)
    p999 = benchlib.percentile(lat_us, 99.9)
    net, reload_stats = summary["net"], summary["reload"]
    record("latency (not gated): p50 %.1f us, p90 %.1f us, p99 %.1f us (%d "
           "samples beyond), p99.9 %.1f us (%d beyond), of %d" % (
               p50, p90, p99, benchlib.beyond(lat_us, p99), p999,
               benchlib.beyond(lat_us, p999), len(lat_us)))
    record("server: requests %d responses %d cache hits %d misses %d "
           "reloads %d rejected %d; client saw %d cache hits" % (
               net["requests"], net["responses"], summary["cache"]["hits"],
               summary["cache"]["misses"], reload_stats["reloads_ok"],
               reload_stats["reloads_rejected"], r["client_seen_hits"]))

    for key, what in (("failed", "requests failed or came back degraded"),
                      ("transport_errors", "requests hit transport errors"),
                      ("mismatched", "answers differ from the in-process "
                                     "engine"),
                      ("stale", "answers came from the old snapshot after "
                                "the new one on the same connection"),
                      ("ambiguous", "answers matched both snapshots")):
        if r[key]:
            ctx.fail("%d %s" % (r[key], what))
    if net["requests"] != net["responses"] or net["requests"] != r["attempted"]:
        ctx.fail("server answered %d of %d requests (%d sent)" % (
            net["responses"], net["requests"], r["attempted"]))
    rejects = (net["shed"] + net["delay_shed"] + net["breaker_rejected"] +
               reload_stats["reloads_rejected"] + net["protocol_errors"])
    if rejects:
        ctx.fail("server rejected %d requests or reloads" % rejects)
    if reload_stats["reloads_ok"] != len(publish_at) or \
            r["publishes"] != len(publish_at):
        ctx.fail("%d reloads for %d publishes" % (reload_stats["reloads_ok"],
                                                  len(publish_at)))
    if publish_at and r["max_stage_seen"] != len(publish_at):
        ctx.fail("no connection saw the last published snapshot")
    ctx.attempted = r["attempted"]
    ctx.failed = r["failed"] + r["transport_errors"] + r["mismatched"] + \
        r["stale"]
    return {
        "ops_per_cpu_s": per_cpu,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
    }


# ---- traced run -------------------------------------------------------------

def run_trace(name, ctx):
    """Every per-layer metric on every workload: the training side runs the
    workload's own training configuration (train_hosr's for a serving
    workload), the serving side the workload's own serving configuration
    (serve_uniform's for a training workload)."""
    train_name = name if name in TRAIN else "train_hosr"
    serve_name = name if name in SERVE else "serve_uniform"
    tspec, sspec = TRAIN[train_name], SERVE[serve_name]
    train_data = ctx.inputs.dataset(tspec["scale"])
    data, snap_a, snap_b = serve_inputs(ctx)
    users = num_users_of(data)
    warmup, timed = sspec["trace_warmup"], sspec["trace_requests"]
    raw = benchlib.stream_bytes(make_stream(sspec, users, warmup + timed,
                                            ctx.seed))
    (ctx.tmp / "stream.bin").write_bytes(raw)
    record("inputs: %s, %s + snapshots A/B, %d requests digest=%s" % (
        train_data.name, data.name, warmup + timed,
        file_digest([train_data, data, snap_a, snap_b], [raw])))
    publish_at = publish_positions(dict(sspec, publishes=4), warmup, timed)

    server = Server(ctx, sspec, snap_a, data, "t")
    out, spans_path = ctx.tmp / "trace.json", ctx.tmp / "spans.bin"
    run([ctx.perfbench, "trace"] + train_flags(train_name, train_data,
                                               ctx.seed) +
        ["--train_epochs=%d" % tspec["traced_epochs"],
         "--serve_data=%s" % data, "--snap_a=%s" % snap_a,
         "--snap_b=%s" % snap_b, "--stream=%s" % (ctx.tmp / "stream.bin"),
         "--warmup=%d" % warmup,
         "--cache_capacity=%d" % (int(users * sspec["cache_share"])
                                  if sspec["cache_share"] else 65536),
         "--publish_at=%s" % ",".join(map(str, publish_at)),
         "--port=%d" % server.port,
         "--roundtrip_warmup=%d" % sspec["rt_warmup"],
         "--roundtrip_requests=%d" % sspec["rt_requests"],
         "--out=%s" % out, "--spans_out=%s" % spans_path], timeout=170)
    if server.stop() != 0:
        ctx.fail("hosr_serve exited with an error")
    r = json.loads(out.read_text())
    host_record(r["dispatch"])
    spans = benchlib.read_spans(spans_path.read_bytes(), r["names"])
    metrics = benchlib.layer_metrics(spans, r, primary=(
        "train" if name in TRAIN else "serve"))
    record("trace: %d spans; tracing overhead train %.3f serve %.3f "
           "(traced/untraced work per CPU-second); span coverage train %.3f "
           "serve %.3f" %
           (len(spans), metrics["trace.train_throughput_ratio"],
            metrics["trace.serve_throughput_ratio"],
            metrics["trace.train_span_coverage"],
            metrics["trace.serve_span_coverage"]))
    if not r["train"]["losses_finite"]:
        ctx.fail("traced training losses are not finite")
    if r["serve"]["failed"]:
        ctx.fail("%d traced requests failed" % r["serve"]["failed"])
    ctx.attempted = int(r["train"]["traced_samples"]) + warmup + timed
    ctx.failed = r["serve"]["failed"]
    return metrics


# ---- input determinism ------------------------------------------------------

def selfcheck(root, perfbench, seed):
    """Regenerates every input of `seed` from scratch and compares digests
    with the cached copies; the inputs of seed + 1 must differ."""
    def digests(inputs):
        out = {}
        for scale in sorted({t["scale"] for t in TRAIN.values()} |
                            {PAPER_SCALE}):
            data = inputs.dataset(scale)
            out["data %s" % scale] = file_digest([data])
        data = inputs.dataset(PAPER_SCALE)
        out["snapshots"] = file_digest(list(inputs.snapshots(data)))
        for name, spec in SERVE.items():
            out["stream " + name] = benchlib.digest([benchlib.stream_bytes(
                make_stream(spec, num_users_of(data), 20000, inputs.seed))])
        return out

    scratch = root / "selfcheck" / str(os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        cached = digests(Inputs(root, perfbench, seed))
        fresh = digests(Inputs(scratch, perfbench, seed))
        other = digests(Inputs(scratch, perfbench, seed + 1))
    finally:
        shutil.rmtree(root / "selfcheck", ignore_errors=True)
    ok = True
    for key in cached:
        same, differs = cached[key] == fresh[key], cached[key] != other[key]
        ok = ok and same and differs
        print("%-26s seed %d reproduces: %-5s seed %d differs: %-5s %s" % (
            key, seed, same, seed + 1, differs, cached[key][:16]))
    print("input self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


# ---- main -------------------------------------------------------------------

class Context:
    def __init__(self, args, perfbench, hosr_serve, root):
        self.seed, self.seconds = args.seed, args.seconds
        self.perfbench, self.hosr_serve = perfbench, hosr_serve
        self.inputs = Inputs(root, perfbench, args.seed)
        self.tmp = root / "runs" / str(os.getpid())
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        self.all_cpus = sorted(os.sched_getaffinity(0))
        half = len(self.all_cpus) // 2
        # hosr_serve on one half of the CPUs, the load generator on the
        # other; with a single CPU both share it.
        self.server_cpus = set(self.all_cpus[:half]) if half else None
        self.load_cpus = set(self.all_cpus[half:]) if half else None
        self.children = []
        self.problems = []
        self.attempted, self.failed = 1, 0

    def fail(self, message):
        self.problems.append(message)

    def close(self):
        for child in self.children:
            child.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(list(TRAIN) + list(SERVE)))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check that inputs are a pure function of --seed")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    root = REPO / ".bench_build"
    perfbench, hosr_serve = build(root)
    if args.selfcheck:
        try:
            return selfcheck(root, perfbench, args.seed)
        except CheckFailed as error:
            log("perfbench: %s" % error)
            return 1
    ctx = Context(args, perfbench, hosr_serve, root)
    try:
        if args.trace:
            values, units = run_trace(args.workload, ctx), PER_LAYER_UNITS
        elif args.workload in TRAIN:
            values, units = run_train(args.workload, ctx), END_TO_END_UNITS
        else:
            values, units = run_serve(args.workload, ctx), END_TO_END_UNITS
    except CheckFailed as error:
        log("perfbench: %s" % error)
        return 1
    finally:
        ctx.close()
    for message in ctx.problems:
        log("perfbench: check failed: %s" % message)
    result = {
        "correct": not ctx.problems,
        "attempted": int(ctx.attempted),
        "failed": int(ctx.failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 1 if ctx.problems else 0


if __name__ == "__main__":
    sys.exit(main())
