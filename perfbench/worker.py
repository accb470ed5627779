"""Runs one workload in this process and prints its raw records as JSON.

Started by ``run.py`` with BLAS pinned to one thread and ``PYTHONPATH=src``;
not meant to be run by hand. The last stdout line is one JSON object with
the per-solve records, the timed wall time, peak RSS, the environment and,
with ``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import solves

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
N_PASSES = 500


class OracleCache:
    """Reference values kept on disk between runs in one checkout.

    Keys are reprs of (oracle name, inputs); the file is dropped when the
    oracle code changes. Values are computed before the timed window (or,
    when they depend on a solve's output, after it).
    """

    def __init__(self, path: Path):
        self.path = path
        src = Path(solves.oracles.__file__).read_bytes()
        self.version = hashlib.sha256(src).hexdigest()[:16]
        self.data = {}
        try:
            doc = json.loads(path.read_text())
            if doc.get("version") == self.version:
                self.data = doc["values"]
        except (OSError, ValueError, KeyError):
            pass
        self.dirty = False

    def get(self, key, compute):
        k = repr(key)
        if k not in self.data:
            self.data[k] = compute()
            self.dirty = True
        return self.data[k]

    def save(self):
        if not self.dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"version": self.version, "values": self.data}))
        os.replace(tmp, self.path)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def radical_inverse(i, base):
    """The i-th point of the van der Corput sequence in the given base."""
    out, f = 0.0, 1.0 / base
    while i:
        i, d = divmod(i, base)
        out += d * f
        f /= base
    return out


def generate(workload, seed, n_passes=N_PASSES):
    """Solve instances for a seed: parameter draws per kind and a shuffled order per pass.

    Returns (draws, passes): draws[kind name] is a list of parameter dicts;
    passes is a list of lists of (kind index, draw index). A kind with free
    parameters gets a fresh draw in every pass (or cycles through
    ``kind.ndraws`` draws when its oracle is expensive). Low-dimensional
    draws follow a Halton sequence shifted by the seed, so every stretch of
    passes covers each parameter range evenly and runs of the same length
    see the same mix of cheap and costly inputs; sample clouds such as the
    Poisson points are plain pseudo-random numbers.
    """
    kinds = solves.WORKLOADS[workload]
    rng = random.Random(seed)
    draws = {}
    for kind in kinds:
        n = 1 if not kind.dims else (kind.ndraws or n_passes)
        if kind.dims > len(PRIMES):
            us = [[rng.random() for _ in range(kind.dims)] for _ in range(n)]
        else:
            shift = [rng.random() for _ in range(kind.dims)]
            us = [[(radical_inverse(j + 1, PRIMES[d]) + shift[d]) % 1.0 for d in range(kind.dims)]
                  for j in range(n)]
        draws[kind.name] = [kind.draw(tuple(u)) for u in us]
    passes = []
    for i in range(n_passes):
        order = [(ki, i % len(draws[kind.name])) for ki, kind in enumerate(kinds)]
        rng.shuffle(order)
        passes.append(order)
    return draws, passes


def digits(worst):
    if worst <= 0:
        return 16.0
    return min(16.0, max(0.0, -math.log10(worst)))


class CliApi:
    """Runs `python -m wbl.cli` children; with importtime tracing when traced."""

    def __init__(self, root: Path, rundir: Path, env):
        self.root, self.rundir, self.env = root, rundir, env
        self.cfgdir = rundir / "cfg"
        self.cfgdir.mkdir(parents=True)
        for name, doc in solves.CLI_CONFIGS.items():
            (self.cfgdir / name).write_text(json.dumps(doc))
        self.n = 0
        self.traced = False
        self.samples = []  # (wall_s, import_s, modules, scipy_loaded) per traced process
        self.interp = []

    def _child(self, cmd):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=150)
        return proc, time.perf_counter() - t0

    def run_cli(self, argv, artifact):
        self.n += 1
        out = self.rundir / f"out{self.n}"
        args = [str(self.cfgdir / a) if a in solves.CLI_CONFIGS else a for a in argv]
        flags = ["-X", "importtime"] if self.traced else []
        proc, wall = self._child([sys.executable, *flags, "-m", "wbl.cli", *args, "--out", str(out)])
        try:
            if proc.returncode != 0:
                raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}")
            data = (out / artifact).read_bytes()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if self.traced:
            self.samples.append((wall, *parse_importtime(proc.stderr.decode())))
        return data

    def time_interpreter(self):
        proc, wall = self._child([sys.executable, "-c", "pass"])
        self.interp.append(wall)

    def layer_metrics(self):
        if not self.samples:
            return {}
        walls, imports, mods, scipy_flags = zip(*self.samples)
        return {
            "cli.interp_s": statistics.median(self.interp),
            "cli.import_s": statistics.median(imports),
            "cli.modules_loaded": statistics.median(mods),
            "cli.scipy_loaded": sum(scipy_flags) / len(scipy_flags),
            "cli.run_s": statistics.median([w - i for w, i in zip(walls, imports)]),
        }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(stderr):
    """(seconds importing the wbl package, modules imported, scipy imported)."""
    wbl_us, modules, scipy = 0, 0, 0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        modules += 1
        name = m.group(4)
        if name == "wbl":
            wbl_us = int(m.group(2))
        if name.split(".")[0] == "scipy":
            scipy = 1
    return wbl_us * 1e-6, modules, scipy


def environment(seed):
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(Path.cwd()),
        "seed": seed,
    }


def git_commit(root: Path):
    """HEAD of a git checkout at root, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(solves.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()

    import wbl

    if Path(wbl.__file__).resolve().parent != (root / "src" / "wbl").resolve():
        print(f"wbl imported from {wbl.__file__}, not from this checkout", file=sys.stderr)
        return 3

    kinds = solves.WORKLOADS[args.workload]
    draws, passes = generate(args.workload, args.seed)
    cache = OracleCache(root / ".bench_cache" / "oracles.json")
    # draws that repeat (fixed problems, and cycled draws with costly
    # oracles) get their oracles now; one-pass draws after the timed window
    refs = {}
    for kind in kinds:
        if len(draws[kind.name]) < len(passes):
            for j, prm in enumerate(draws[kind.name]):
                refs[kind.name, j] = kind.oracle(prm, cache)
    cache.save()

    rundir = root / ".bench_run" / str(os.getpid())
    cli = CliApi(root, rundir, dict(os.environ)) if args.workload == "cli" else None
    try:
        return _measure(args, kinds, draws, passes, refs, cache, cli)
    finally:
        if cli is not None:
            shutil.rmtree(rundir, ignore_errors=True)
        cache.save()


def _measure(args, kinds, draws, passes, refs, cache, cli):
    from tracing import Tracer, plain_api

    plain = plain_api()
    tracer = Tracer() if args.trace else None
    if cli is not None:
        plain.run_cli = cli.run_cli
        if tracer is not None:
            tracer.api.run_cli = cli.run_cli
    records = []  # (kind index, draw index, seconds, output or None, error)

    def one_pass(order, api, deadline=math.inf, solve_base=0):
        """Run the solves in order; False when the deadline cut the pass short."""
        for n, (ki, j) in enumerate(order):
            if time.perf_counter() >= deadline:
                return False
            if tracer is not None:
                tracer.solve_id = solve_base + n
            t0 = time.perf_counter()
            try:
                out, err = kinds[ki].run(draws[kinds[ki].name][j], api), None
            except Exception:  # a failed solve is a measured outcome, not a crash
                out, err = None, traceback.format_exc(limit=2).strip().splitlines()[-1]
            records.append((ki, j, time.perf_counter() - t0, out, err))
        return True

    # warm-up: one untimed pass fills caches, and gives cli its reference bytes
    one_pass(passes[0], plain)
    reference_bytes = {ki: out["artifact"] for ki, _, _, out, _ in records if out and "artifact" in out}
    records.clear()

    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    untraced_s = traced_s = 0.0
    traced_passes = 0
    for order in passes[1:]:
        if time.perf_counter() >= deadline:
            break
        if tracer is None:
            if not one_pass(order, plain, deadline):
                break
            continue
        # the same solves untraced, then traced: their ratio is the overhead
        t0 = time.perf_counter()
        one_pass(order, plain)
        t1 = time.perf_counter()
        if cli is not None:
            cli.time_interpreter()
            cli.traced = True
        t2 = time.perf_counter()
        with tracer.active():
            one_pass(order, tracer.api, solve_base=(traced_passes + 1) * len(order))
        traced_s += time.perf_counter() - t2
        untraced_s += t1 - t0
        traced_passes += 1
        if cli is not None:
            cli.traced = False
    wall = time.perf_counter() - t_start

    rows = []
    identical = reruns = 0
    for ki, j, dt, out, err in records:
        kind = kinds[ki]
        status, worst, note = "error", math.inf, err or ""
        if out is not None:
            try:
                prm = draws[kind.name][j]
                if (kind.name, j) not in refs:
                    refs[kind.name, j] = kind.oracle(prm, cache)
                ok, worst, note = kind.check(prm, out, refs[kind.name, j], cache)
                status = "verified" if ok else "missed"
            except Exception:
                note = "check raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
            if "artifact" in out:
                reruns += 1
                same = out["artifact"] == reference_bytes.get(ki)
                identical += same
                if not same:
                    status, note = "error", (note + "; rerun bytes differ").strip("; ")
        rows.append([kind.name, dt, status, digits(worst), note])

    usage = resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
    result = {
        "records": rows,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "env": environment(args.seed),
        "solves": [k.name for k in kinds],
    }
    if tracer is not None:
        layers = tracer.layer_metrics(traced_passes)
        if cli is not None:
            layers.update(cli.layer_metrics())
            layers["cli.artifact_bytes"] = float(sum(len(b) for b in reference_bytes.values()))
            layers["cli.rerun_identical_frac"] = identical / reruns if reruns else 0.0
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
        layers["trace.passes"] = traced_passes
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
