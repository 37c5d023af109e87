#!/usr/bin/env python3
"""Whole-process campaign benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The first invocation builds the
`alfi` CLI (root CMakeLists, target `alfi`) and the trace driver
(perfbench/driver) under .bench_build/, and trains the two CLI models
once into .bench_build/work/alfi_cache (untimed; users pay training once).

Every invocation then:
  1. writes the workload's scenario YAML from the workload definition and
     the seed;
  2. runs the workload once at --jobs 1 without a fleet as the reference;
  3. --trace 0: launches real `alfi run-*` processes back to back for
     --seconds, each with fresh output/checkpoint directories, checks each
     against the reference (gate.py) and reports the mean of every
     end-to-end metric over those processes;
     --trace 1: runs untraced processes for half of --seconds, then the
     trace driver once, and reports the per-layer metrics;
  4. prints a host fingerprint line, then the result JSON as the last line.

Per-run records (samples, fingerprint, kernel/leaf tables, the Chrome
trace) are written under .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import gate  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
RESULTS = os.path.join(BUILD, "results")
PROCESS_TIMEOUT_S = 120

# Workload definitions.  All keep the scenarios/default.yml fault model
# (bitflip over bits 0..31, transient, one fault per image, weighted
# conv2d/conv3d/linear layer selection) and use at most 3 processes or
# threads.
WORKLOADS = {
    # Triple pass (orig/corr/resil) through the kernels, prefix replay and
    # the threaded executor; small set-up.
    "imgclass-neuron-ranger": dict(
        task="imgclass", model="alexnet", target="neurons", policy="per_image",
        dataset_size=128, num_runs=2, batch_size=8,
        jobs=2, mitigation="ranger", leaf_batch=1),
    # Fault-free eval pass dominates set-up; the campaign runs the serial
    # batched-policy path with weight corrupt/restore at batch 8.
    "imgclass-weight-perbatch": dict(
        task="imgclass", model="alexnet", target="weights", policy="per_batch",
        dataset_size=256, num_runs=1, batch_size=8,
        jobs=2, leaf_batch=8),
    # Detector KPIs, journal + checkpoint writes and fleet lease traffic.
    "objdet-neuron-fleet": dict(
        task="objdet", model="yolo", target="neurons", policy="per_image",
        dataset_size=256, num_runs=1, batch_size=8,
        jobs=1, fleet_workers=2, checkpoint=True, leaf_batch=1),
}

def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- processes -------------------------------------------------------------

class Launched:
    """A child process in its own session, so its whole tree can be killed."""

    live = set()

    def __init__(self, cmd, cwd, stdout):
        self.proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout,
                                     stderr=subprocess.STDOUT, start_new_session=True)
        Launched.live.add(self)

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self, timeout):
        """Waits for the process, killing its tree after `timeout` s; (exit code, rusage)."""
        timer = threading.Timer(timeout, self.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
            Launched.live.discard(self)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, rusage

    @classmethod
    def kill_all(cls):
        for launched in list(cls.live):
            launched.kill()
            try:
                os.waitpid(launched.proc.pid, 0)
            except ChildProcessError:
                pass
        cls.live.clear()


def run_logged(cmd, cwd, log_path, timeout):
    with open(log_path, "ab") as out:
        out.write(("$ " + " ".join(cmd) + "\n").encode())
        out.flush()
        code, _ = Launched(cmd, cwd, out).wait(timeout)
    if code != 0:
        with open(log_path, "rb") as f:
            tail = f.read()[-3000:].decode(errors="replace")
        raise RuntimeError("command failed (%d): %s\n%s" % (code, " ".join(cmd), tail))


def timed(cmd, cwd, timeout=PROCESS_TIMEOUT_S):
    """Runs cmd; returns (exit code, wall s, user+sys s of the tree, peak RSS MB).

    wait4 reports the rusage of the process and of every descendant it
    waited for (forked fleet workers included); ru_maxrss is the largest
    peak RSS among them.
    """
    with open(os.devnull, "wb") as devnull:
        start = time.perf_counter()
        launched = Launched(cmd, cwd, devnull)
        code, ru = launched.wait(timeout)
        wall = time.perf_counter() - start
    return code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


# ---- build and preparation -----------------------------------------------------

def cmake_cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    """Builds the CLI and the trace driver; returns (alfi, alfi_trace) paths."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    repo_build = os.path.join(BUILD, "repo")
    if not os.path.exists(os.path.join(repo_build, "CMakeCache.txt")):
        log("building alfi (first run; log in .bench_build/build.log)")
        run_logged(["cmake", "-S", ROOT, "-B", repo_build], ROOT, log_path, 600)
    run_logged(["cmake", "--build", repo_build, "--target", "alfi", "-j", jobs],
               ROOT, log_path, 800)
    driver_build = os.path.join(BUILD, "driver")
    configure = ["cmake", "-S", os.path.join(HERE, "driver"), "-B", driver_build,
                 "-DALFI_ROOT=" + ROOT, "-DALFI_BUILD=" + repo_build]
    build_type = cmake_cache_value(repo_build, "CMAKE_BUILD_TYPE")
    if build_type:
        configure.append("-DCMAKE_BUILD_TYPE=" + build_type)
    run_logged(configure, ROOT, log_path, 300)
    run_logged(["cmake", "--build", driver_build, "-j", jobs], ROOT, log_path, 600)
    alfi = os.path.join(repo_build, "tools", "alfi")
    driver = os.path.join(driver_build, "alfi_trace")
    for path in (alfi, driver):
        if not os.access(path, os.X_OK):
            raise RuntimeError("build produced no " + path)
    return alfi, driver


def warm_models(alfi):
    """Trains each CLI model once into WORK/alfi_cache (untimed).

    The CLI trains on the dataset of the run that finds the cache empty,
    so training always happens here, on a fixed 128-image classification
    set and 48-image detection set, never inside a measured run.
    """
    cache = os.path.join(WORK, "alfi_cache")
    stamp = os.path.join(cache, "train_s.json")
    train_s = {}
    if os.path.exists(stamp):
        with open(stamp) as f:
            train_s = json.load(f)
    runs = {
        "alexnet": ["run-imgclass", "--model", "alexnet", "--dataset-size", "128"],
        "yolo": ["run-objdet", "--family", "yolo", "--dataset-size", "48"],
    }
    for model, args in runs.items():
        if model in train_s and os.path.exists(os.path.join(cache, "cli_%s.params" % model)):
            continue
        log("training %s once (untimed)" % model)
        out = os.path.join(WORK, "warm-" + model)
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        run_logged([alfi] + args + ["--jobs", "1", "--output", out], WORK,
                   os.path.join(BUILD, "warm.log"), 800)
        train_s[model] = time.perf_counter() - start
        shutil.rmtree(out, ignore_errors=True)
        with open(stamp, "w") as f:
            json.dump(train_s, f)
    return train_s


def scenario_seed(workload, seed):
    digest = hashlib.sha256(("%s:%d" % (workload, seed)).encode()).hexdigest()
    return int(digest[:8], 16)


def write_scenario(path, w, rnd_seed):
    with open(path, "w") as f:
        f.write(
            "fault_injection:\n"
            "  target: %s\n"
            "  value_type: bitflip\n"
            "  rnd_bit_range: [0, 31]\n"
            "  rnd_value_range: [-1.0, 1.0]\n"
            "  duration: transient\n"
            "  inj_policy: %s\n"
            "  max_faults_per_image: 1\n"
            "  layer_types: [conv2d, conv3d, linear]\n"
            "  layer_range: []\n"
            "  weighted_layer_selection: true\n"
            "run:\n"
            "  dataset_size: %d\n"
            "  num_runs: %d\n"
            "  batch_size: %d\n"
            "  rnd_seed: %d\n"
            % (w["target"], w["policy"], w["dataset_size"], w["num_runs"],
               w["batch_size"], rnd_seed))


def unit_shape(w):
    """(units, images per unit) of a workload."""
    if w["policy"] == "per_batch":
        batches = -(-w["dataset_size"] // w["batch_size"])
        return batches * w["num_runs"], w["batch_size"]
    return w["dataset_size"] * w["num_runs"], 1


def execution_flags(w, ckpt):
    """Flags shared by the CLI and the trace driver; ckpt=None gives the
    reference execution (--jobs 1, no fleet, no checkpoint)."""
    flags = ["--mitigation", w["mitigation"]] if w.get("mitigation") else []
    if ckpt is None:
        return flags + ["--jobs", "1"]
    flags += ["--jobs", str(w["jobs"])]
    if w.get("fleet_workers"):
        flags += ["--fleet-workers", str(w["fleet_workers"])]
    if w.get("checkpoint"):
        flags += ["--checkpoint", ckpt]
    return flags


def campaign_cmd(alfi, w, scenario, out, ckpt):
    sub = ["run-imgclass", "--model"] if w["task"] == "imgclass" else ["run-objdet", "--family"]
    return [alfi] + sub + [w["model"], "--scenario", scenario, "--output", out,
                           "--metrics", os.path.join(out, "metrics.json")] + \
        execution_flags(w, ckpt)


def read_metrics(out):
    try:
        with open(os.path.join(out, "metrics.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


# ---- host fingerprint -----------------------------------------------------------

def read_cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def fingerprint(steal_pct):
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
                if line.startswith("flags") and not flags:
                    have = set(line.split(":", 1)[1].split())
                    flags = sorted(have & {"sse4_2", "avx", "avx2", "fma", "f16c",
                                           "avx512f", "avx512bw", "avx512vl"})
    except OSError:
        pass
    repo_build = os.path.join(BUILD, "repo")
    compiler = cmake_cache_value(repo_build, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True, timeout=10).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.SubprocessError):
            pass
    commit = "none"  # the checkout need not be a git repository
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_model": model,
        "isa_flags": flags,
        "nproc": len(os.sched_getaffinity(0)),
        "steal_pct": steal_pct,
        "compiler": version or compiler,
        "build_type": cmake_cache_value(repo_build, "CMAKE_BUILD_TYPE") or "(repo default)",
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


# ---- measurement ------------------------------------------------------------------

class Measurement:
    def __init__(self, alfi, w, scenario, run_dir, ref_out):
        self.alfi, self.w, self.scenario = alfi, w, scenario
        self.run_dir, self.ref_out = run_dir, ref_out
        self.units, self.images_per_unit = unit_shape(w)
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, out, code):
        metrics = read_metrics(out) if code == 0 else None
        if code == 0 and metrics is None:
            failed, reasons = self.units, ["no metrics.json"]
        else:
            failed, reasons = gate.compare_run(
                self.w["task"], self.w["model"], self.ref_out, out, self.units,
                self.images_per_unit, self.w["dataset_size"], exit_code=code,
                units_total=metrics["counters"].get("units.total") if metrics else None)
        self.attempted += self.units
        self.failed += failed
        self.reasons += reasons
        return metrics

    def one(self, rep):
        out = os.path.join(self.run_dir, "rep%d" % rep)
        ckpt = os.path.join(self.run_dir, "rep%d-ckpt" % rep)
        os.makedirs(out)
        cmd = campaign_cmd(self.alfi, self.w, self.scenario, out, ckpt)
        code, wall, cpu, rss = timed(cmd, WORK)
        metrics = self.check(out, code)
        if metrics is not None:
            campaign = metrics["timing"]["wall_seconds"]
            images = self.w["dataset_size"] * self.w["num_runs"]
            self.samples.append({
                "wall_s": wall, "images_per_s": images / wall, "setup_s": wall - campaign,
                "campaign_s": campaign, "cpu_s": cpu, "peak_rss_mb": rss,
            })
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(ckpt, ignore_errors=True)

    def loop(self, seconds, min_reps=3):
        start = time.perf_counter()
        rep = 0
        while rep < min_reps or time.perf_counter() - start < seconds:
            self.one(rep)
            rep += 1

    def means(self):
        """End-to-end metrics: means over the run's processes.

        A single-threaded process runs whole on a fast or on a slowed vCPU,
        so one run's process times are often bimodal and their median jumps
        between the two modes; the mean moves smoothly with the share of
        slow processes.  images_per_s is the run's throughput: images per
        process over the mean wall time.
        """
        values = {k: statistics.fmean(s[k] for s in self.samples) for k in self.samples[0]}
        values["images_per_s"] = self.w["dataset_size"] * self.w["num_runs"] / values["wall_s"]
        return values


def traced(driver, w, scenario, run_dir, measurement, untraced_wall, train_s, tag):
    out = os.path.join(run_dir, "traced")
    cmd = [driver, "--task", w["task"], "--arch", w["model"], "--scenario", scenario,
           "--output", out, "--leaf-batch", str(w["leaf_batch"]),
           "--trace-out", os.path.join(RESULTS, tag + ".trace.json"),
           "--leaf-table", os.path.join(RESULTS, tag + ".leaves.csv"),
           "--kernel-table", os.path.join(RESULTS, tag + ".kernels.csv")]
    cmd += execution_flags(w, os.path.join(run_dir, "traced-ckpt"))
    os.makedirs(out)
    proc = Launched(cmd, WORK, subprocess.PIPE)
    stdout, _ = proc.proc.communicate(timeout=PROCESS_TIMEOUT_S)
    Launched.live.discard(proc)
    lines = stdout.decode(errors="replace").strip().splitlines()
    metrics = json.loads(lines[-1]) if proc.proc.returncode == 0 and lines else None
    measurement.check(out, proc.proc.returncode)
    if metrics is None:
        raise RuntimeError("trace driver failed:\n" + stdout.decode(errors="replace")[-3000:])
    metrics["trace.overhead_s"] = metrics["trace.cli_sequence_s"] - untraced_wall
    metrics["models.train_s"] = train_s.get(w["model"], 0.0)
    return metrics


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "alficore.h")):
        log("error: %s holds no repository sources (src/ missing)" % ROOT)
        return 2
    spec = load_benchmark_spec()
    w = WORKLOADS[args.workload]

    alfi, driver = build()
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    train_s = warm_models(alfi)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    run_dir = os.path.join(BUILD, "runs", tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    scenario = os.path.join(run_dir, "scenario.yml")
    write_scenario(scenario, w, scenario_seed(args.workload, args.seed))

    ref_out = os.path.join(run_dir, "reference")
    os.makedirs(ref_out)
    ref_code, _, _, _ = timed(campaign_cmd(alfi, w, scenario, ref_out, None), WORK)
    ref_metrics = read_metrics(ref_out)
    units, _ = unit_shape(w)
    if ref_code != 0 or ref_metrics is None or \
            ref_metrics["counters"].get("units.total") != units:
        log("error: reference run failed or ran a wrong unit count")
        return 1

    m = Measurement(alfi, w, scenario, run_dir, ref_out)
    steal0, total0 = read_cpu_times()
    m.loop(args.seconds if args.trace == 0 else args.seconds / 2)
    if not m.samples:
        log("error: no measured process succeeded: %s" % sorted(set(m.reasons)))
        return 1
    values = m.means()
    names = [e["name"] for e in spec["end_to_end"]]
    if args.trace == 1:
        values = traced(driver, w, scenario, run_dir, m, values["wall_s"], train_s, tag)
        names = [e["name"] for e in spec["per_layer"]]
    steal1, total1 = read_cpu_times()
    steal_pct = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    values["units_failed_frac"] = m.failed / m.attempted
    values["host.steal_pct"] = steal_pct
    units_of = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}

    host = fingerprint(steal_pct)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host, "samples": m.samples, "reasons": m.reasons, "values": values}
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)

    print("# host " + json.dumps(host))
    print("# processes %d, failure reasons %s" % (len(m.samples), sorted(set(m.reasons))))
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {n: {"value": values.get(n, 0.0), "unit": units_of[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so the children are still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        code = main()
    except Exception as e:  # report, stop children, exit non-zero without a result
        log("error: %s" % e)
        code = 1
    finally:
        Launched.kill_all()
    sys.exit(code)
