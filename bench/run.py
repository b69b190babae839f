"""Benchmark of the `sparsesdr` command line.

    python3 bench/run.py --workload screen_wide --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout; the program is imported from its
`src/` directory. Each workload (see workloads.py) writes its inputs from
`--seed` during set-up, then runs its CLI commands as a closed loop with one
client: every command is its own `python -m sparsesdr.cli` child process and
the next starts only after the previous one exits. Whole passes over the
workload's commands repeat until `--seconds` would be exceeded (at least one
pass). BLAS thread variables are left as found.

`--trace 0` reports the end-to-end metrics: the median pass wall time, the
median set-up time (five set-ups before the first pass and one before every
pass) and the median peak RSS of the children. `--trace 1` pairs
every untraced pass with an in-process pass through `sparsesdr.cli.main`
whose module calls are wrapped by tracer.py, and reports the median of each
per-layer metric.

Every command's outputs are checked; a command fails if it exits non-zero,
its outputs do not parse or are wrong, or its answer differs from the first
pass's (traced or not). The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. The line before it holds the
details: the answer fingerprint and quality figures, every sample, and the
machine. Both, and the spans of every traced pass, are also written to
bench/results/BENCH_<workload>_seed<seed>_trace<0|1>_<scale>.json.

`--smoke` runs every workload once at a tiny size, with and without tracing,
and checks that each result is correct and carries every metric that
BENCHMARK.json names, with its unit. It exits non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

from tracer import UNITS, Tracer, layer_metrics
from workloads import FULL, SMOKE, WORKLOADS, CheckError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# A malformed output file surfaces as one of these while it is checked.
OUTPUT_ERRORS = (CheckError, KeyError, TypeError, ValueError, IndexError)


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    import scipy
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args, env, cwd: Path, log: Path):
    """Run `python -m sparsesdr.cli *args` to completion.
    Returns (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sparsesdr.cli", *args],
                                env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def import_cli():
    """The checkout's `sparsesdr.cli`, imported into this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sparsesdr.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"sparsesdr imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def span_table(spans) -> dict:
    """A traced pass's spans as rows, times in seconds from its first span
    and threads numbered in order of appearance."""
    t0 = spans[0].start if spans else 0.0
    threads = {}
    return {"columns": ["name", "start", "end", "parent", "thread"],
            "rows": [[s.name, s.start - t0, s.end - t0, s.parent,
                      threads.setdefault(s.thread, len(threads))]
                     for s in spans]}


class Pass:
    """One run of a workload's commands, each command's outputs checked."""

    def __init__(self, commands, execute, reference=None):
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.answers: list[dict | None] = []
        self.failures: list[str] = []
        for i, cmd in enumerate(commands):
            shutil.rmtree(cmd.out, ignore_errors=True)
            code, secs, mb = execute(cmd.args)
            self.wall_s += secs
            self.rss_mb = max(self.rss_mb, mb)
            answer, problem = None, None
            if code != 0:
                problem = f"exit code {code}"
            else:
                try:
                    answer = cmd.check(cmd.out)
                except OUTPUT_ERRORS as exc:
                    problem = repr(exc)
                else:
                    if reference is not None and answer != reference.answers[i]:
                        problem = "answer differs from the first pass"
            if problem is not None:
                self.failures.append(f"{cmd.args[0]}: {problem}")
            self.answers.append(answer)
        self.attempted = len(commands)


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: str = FULL):
    """Run one workload; returns (result, details)."""
    workload = WORKLOADS[name](scale)
    workdir = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "in").mkdir(parents=True)
    env = child_env()
    log = workdir / "stderr.log"
    cli = tracer = None
    if trace:
        cli = import_cli()
        tracer = Tracer()

    def untraced(args):
        return run_child(args, env, workdir, log)

    def traced(args):
        t0 = time.perf_counter()
        try:
            code = tracer.call("cli.main", cli.main, args)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            # what a child process would report as a crash, exit code 1
            traceback.print_exc()
            code = 1
        return code, time.perf_counter() - t0, 0.0

    setup_s = []

    def set_up():
        t0 = time.perf_counter()
        inputs = workload.prepare(seed, workdir / "in")
        setup_s.append(time.perf_counter() - t0)
        return inputs

    try:
        # Set-up takes milliseconds on small workloads, where the machine's
        # speed swings over seconds; so it is timed again before every pass
        # and the median spans the whole run, as the wall time does.
        for _ in range(SETUP_REPEATS):
            inputs = set_up()
        # Untimed: load the interpreter and the program's imports into the
        # page cache, as they are for a user who runs the CLI repeatedly.
        run_child(["--help"], env, workdir, log)
        startup_s = 0.0
        if trace:
            # the start-up each untraced command pays and an in-process one
            # does not: interpreter, imports and exit, timed on `--help`
            startup_s = median(run_child(["--help"], env, workdir, log)[1]
                               for _ in range(3))

        plain, layered, spans = [], [], []
        start = time.perf_counter()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            inputs = set_up()
            ref = plain[0] if plain else None
            plain.append(Pass(workload.commands(inputs, seed, workdir / "out"),
                              untraced, ref))
            if trace:
                tracer.spans.clear()
                tracer.install()
                try:
                    p = Pass(workload.commands(inputs, seed, workdir / "tout"),
                             traced, plain[0])
                finally:
                    tracer.uninstall()
                untraced_s = plain[-1].wall_s - plain[-1].attempted * startup_s
                layered.append((p, layer_metrics(tracer.spans, untraced_s)))
                spans.append(span_table(tracer.spans))
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + longest > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + [p for p, _ in layered]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)
    answer = {}
    for a in plain[0].answers:
        answer.update(a or {})

    if trace:
        metrics = {k: {"value": median(m[k] for _, m in layered),
                       "unit": unit} for k, unit in UNITS.items()}
        answer["admm.cap_hit_frac"] = metrics["admm.cap_hit_frac"]["value"]
    else:
        values = {"wall_s": median(p.wall_s for p in plain),
                  "setup_s": median(setup_s),
                  "peak_rss_mb": median(p.rss_mb for p in plain)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    details = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "scale": scale,
        "passes": len(plain),
        "pass_wall_s": [p.wall_s for p in plain],
        "traced_wall_s": [p.wall_s for p, _ in layered],
        "peak_rss_mb": [p.rss_mb for p in plain],
        "setup_s": setup_s,
        "startup_s": startup_s,
        "fail_frac": failed / attempted,
        "failures": failures,
        "answer": answer,
        "unwrapped": tracer.missing if tracer else [],
        "machine": machine(),
        "spans": spans,
    }
    return result, details


def write_result(result: dict, details: dict) -> None:
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    name = (f"BENCH_{details['workload']}_seed{details['seed']}"
            f"_trace{details['trace']}_{details['scale']}.json")
    (out / name).write_text(json.dumps({"result": result,
                                        "details": details}, indent=2) + "\n")


def smoke() -> int:
    """Every workload once at a tiny size, untraced and traced; checks the
    metric names and units against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != "
                        f"{sorted(WORKLOADS)}")
    for name in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            t0 = time.perf_counter()
            result, details = measure(name, 1, 0, trace, SMOKE)
            write_result(result, details)
            tag = f"{name} trace={int(trace)}"
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {got} != {want}")
            if not all(np.isfinite(v["value"])
                       for v in result["metrics"].values()):
                problems.append(f"{tag}: non-finite metric")
            if not result["correct"]:
                problems.append(f"{tag}: {details['failures']}")
            print(f"smoke {tag}: correct={result['correct']} "
                  f"{time.perf_counter() - t0:.1f}s", flush=True)
    for p in problems:
        print(f"smoke FAIL {p}", file=sys.stderr)
    print("smoke", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; checks the output")
    args = parser.parse_args(argv)
    if not (SRC / "sparsesdr" / "cli.py").is_file():
        print(f"no sparsesdr sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, details = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    write_result(result, details)
    del details["spans"]  # in the results file only
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
