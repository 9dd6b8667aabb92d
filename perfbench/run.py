"""Benchmark of the crosslat command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured call is ``crosslat.cli.main(argv)`` in a fresh process
(``child.py``) with BLAS pinned to one thread; calls run one at a time.
Each call's exit code, one-line summary and data sha256 must equal the
values pinned in ``pins.json``; a call that differs, raises or times out
counts as failed and its timings are left out.

``--trace 0`` repeats the workload's call while another one fits in
``--seconds`` and reports medians of the end-to-end metrics; host speed
swings over seconds, so a run should span about 30 s.  ``--trace 1`` makes one
untraced and one traced call, checks that both print the same data and
that every layer metric fires on the workloads listed for it, and
reports the layer metrics.  The last line of standard output is the
JSON result; the machine, the versions and, for traced runs, the top
layers and call-tree edges go to standard error.

The seed picks a symmetry-equivalent variant of the workload's input
(seed 0 is the default).  ``--write-pins`` records the pinned outputs of
every variant of every workload.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 5

# BLAS runs the float64 matmuls of the lattice tables; more threads than
# one would make timings depend on the machine's idle cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

SCAN_FAMILIES = ("path A", "path B", "path C")  # one graph, three kind tags


def _theorem_scan(seed: int):
    family = SCAN_FAMILIES[seed % 3]
    return ["scan", "theorems", "--family", family, "--n-max", "5"], 62


def _charpoly_scan(seed: int):
    family = SCAN_FAMILIES[seed % 3]
    # every j0 but the full one, n = 1..9
    return ["scan", "charpoly", "--family", family, "--n-max", "9"], 1013


def _analyze_distributive(seed: int):
    j0 = ("{1}", "{9}")[seed % 2]  # an end node or its mirror image
    return ["analyze", "--graph", "path A 9", "--j0", j0], 1


def _analyze_cycle(seed: int):
    j0 = "{%d}" % (seed % 10 + 1)  # one node, any rotation
    return ["analyze", "--graph", "cycle 10", "--j0", j0], 1


# name -> seed -> (argv, configurations per call); each has a variant
# count so --write-pins can visit every variant
WORKLOADS = {
    "theorem-scan": (_theorem_scan, 3),
    "charpoly-scan": (_charpoly_scan, 3),
    "analyze-distributive": (_analyze_distributive, 2),
    "analyze-cycle": (_analyze_cycle, 10),
}

# Layer metrics: (span, metric suffixes, workloads on which the span must
# fire).  A span that stops firing where listed fails the coverage check.
LAYERS = [
    ("crosslattice.enumerate_lattice", ("self_s", "calls"), "*"),
    ("crosslattice.to_poset", ("self_s",), "*"),
    ("crosslattice.meet", ("self_s", "calls"), {"theorem-scan"}),
    ("poset_engine.tables", ("self_s", "calls"),
     {"theorem-scan", "analyze-distributive", "analyze-cycle"}),
    ("poset_engine.covers", ("self_s", "calls"),
     {"theorem-scan", "analyze-distributive", "analyze-cycle"}),
    ("poset_engine.mobius_from", ("self_s", "calls", "hit_ratio"), "*"),
    ("poset_engine.is_distributive_lattice", ("self_s", "calls"),
     {"theorem-scan", "analyze-distributive", "analyze-cycle"}),
    ("poset_engine.modular_element_mask", ("self_s", "calls"),
     {"theorem-scan", "analyze-distributive"}),
    ("poset_engine.is_supersolvable_bruteforce", ("self_s",),
     {"theorem-scan", "analyze-distributive"}),
    ("poset_engine.interval_poset", ("self_s", "calls"), {"theorem-scan"}),
    ("poset_engine.is_relatively_complemented", ("self_s", "calls"), {"theorem-scan"}),
    ("poset_engine.is_atomic", ("self_s",), {"theorem-scan"}),
    ("poset_engine.is_boolean", ("self_s",), {"theorem-scan"}),
    ("poset_engine.posets_isomorphic", ("self_s", "calls", "true_ratio"), {"theorem-scan"}),
    ("poset_engine.join", ("self_s", "calls"), {"theorem-scan"}),
    ("poset_engine.meet", ("self_s", "calls"), {"theorem-scan"}),
    ("poset_engine.chain_product_factorization", ("self_s",), {"analyze-distributive"}),
    ("poset_engine.characteristic_polynomial", ("self_s",),
     {"charpoly-scan", "analyze-distributive", "analyze-cycle"}),
    ("flags.flag_f_vector", ("self_s",), {"analyze-distributive", "analyze-cycle"}),
    ("flags.flag_beta", ("self_s",), {"analyze-distributive", "analyze-cycle"}),
    ("flags.fundamental_to_monomial", ("self_s",), {"analyze-distributive", "analyze-cycle"}),
    ("flags.is_flag_symmetric", ("self_s",), {"analyze-distributive", "analyze-cycle"}),
    ("theorem_suite.scan", ("self_s",), {"theorem-scan", "charpoly-scan"}),
    ("theorem_suite.criteria", ("self_s", "calls"), "*"),
    ("cli.analyze_report", ("self_s",), {"analyze-distributive", "analyze-cycle"}),
    ("cli.output", ("self_s",), "*"),
]
UNITS = {"self_s": "s", "calls": "count", "hit_ratio": "ratio", "true_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    metrics: dict          # name -> (value, unit)
    attempted: int
    failed: int
    errors: list[str]      # why calls failed, and coverage problems
    sample: dict           # one child record, for the versions it reports


def require_sources() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "crosslat", "cli.py")):
        raise BenchError(f"no crosslat sources under {os.path.join(ROOT, 'src')}")


def call(child_args: list[str], deadline: float) -> dict:
    """Run child.py once in a fresh process; adds setup_s to its record."""
    env = dict(os.environ, **BLAS_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *child_args]
    t0 = time.monotonic()
    timeout = deadline - t0
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not out.strip():
        return {"error": f"child exited {proc.returncode}: {err.strip()[-2000:]}"}
    record = json.loads(out.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is shared by all processes, so this spans interpreter
    # start-up and the imports of numpy and crosslat
    record["setup_s"] = record["ready"] - t0
    record["elapsed_s"] = time.monotonic() - t0
    return record


def cli_call(argv: list[str], traced: bool, deadline: float) -> dict:
    return call(["1" if traced else "0", json.dumps(argv)], deadline)


def check(record: dict, pin: dict) -> str | None:
    """Why the call failed, or None when it matches its pin."""
    if record.get("error"):
        return record["error"]
    for key in ("exit", "summary", "sha256"):
        if record[key] != pin[key]:
            return f"{key} {record[key]!r} differs from pinned {pin[key]!r}"
    return None


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    # a checkout without .git may sit inside another repository
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10, check=True)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "commit": commit, "dirty": dirty, **BLAS_ENV}


def run_untraced(argv: list[str], configs: int, pin: dict, seconds: float,
                 deadline: float) -> Outcome:
    """Repeat the call while another one fits in ``seconds``; report medians."""
    start = time.monotonic()
    good, timed, errors = [], [], []
    attempted = 0
    while True:
        elapsed = time.monotonic() - start
        if attempted and elapsed + statistics.median(r["elapsed_s"] for r in timed) > seconds:
            break
        rec = cli_call(argv, False, deadline)
        attempted += 1
        why = check(rec, pin)
        if why is not None:
            errors.append(why)
        if "wall_s" not in rec:
            break
        timed.append(rec)
        if why is None:
            good.append(rec)
    base = good or timed
    if not base:
        raise BenchError("; ".join(errors))
    setups = [r["setup_s"] for r in base]
    while len(setups) < SETUP_SAMPLES:
        rec = call(["setup"], deadline)
        if "setup_s" not in rec:
            raise BenchError(rec["error"])
        setups.append(rec["setup_s"])
    wall = statistics.median(r["wall_s"] for r in base)
    print(f"calls={attempted} failed={attempted - len(good)} wall_s="
          + ",".join(f"{r['wall_s']:.3f}" for r in base), file=sys.stderr)
    metrics = {
        "wall_s": (wall, "s"),
        "configs_per_s": (configs / wall, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in base), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return Outcome(metrics, attempted, attempted - len(good), errors, base[0])


def layer_metrics(workload: str, rec: dict, configs: int) -> tuple[dict, list[str]]:
    """Layer metrics of a traced call, and the coverage problems found."""
    spans, counters = rec["spans"], rec["counters"]
    ratios = {"hit_ratio": counters["mobius_hits"], "true_ratio": counters["iso_true"]}
    problems, metrics = [], {}
    for span, suffixes, fires_on in LAYERS:
        calls, self_s = spans.get(span, [0, 0.0])
        if (fires_on == "*" or workload in fires_on) and calls == 0:
            problems.append(f"span {span} never fired on {workload}")
        for suffix in suffixes:
            if suffix == "self_s":
                value = self_s
            elif suffix == "calls":
                value = calls
            else:
                value = ratios[suffix] / calls if calls else 0.0
            metrics[f"{span}.{suffix}"] = (value, UNITS[suffix])
    metrics["crosslattice.elements"] = (counters["elements"], "count")
    metrics["theorem_suite.configs"] = (counters["scan_configs"], "count")
    if workload.endswith("-scan") and counters["scan_configs"] != configs:
        problems.append(f"scan enumerated {counters['scan_configs']} configurations, "
                        f"expected {configs}")
    print(_layer_table(rec, {s for s, _, _ in LAYERS}), file=sys.stderr)
    return metrics, problems


def _layer_table(rec: dict, named: set) -> str:
    """Top spans by self time (unnamed ones marked *) and call-tree edges."""
    spans = rec["spans"]
    total = sum(s for _, s in spans.values())
    lines = [f"traced wall {rec['wall_s']:.3f} s, span self time {total:.3f} s",
             f"{'span':48} {'calls':>9} {'self_s':>9} {'share':>6}"]
    for name, (calls, self_s) in sorted(spans.items(), key=lambda kv: -kv[1][1])[:15]:
        mark = " " if name in named else "*"
        lines.append(f"{mark}{name:47} {calls:9d} {self_s:9.3f} {self_s / total:6.1%}")
    lines.append("top call-tree edges (parent -> span):")
    lines += [f"  {p or '(root)'} -> {c}: {n} calls, {s:.3f} s self"
              for p, c, n, s in sorted(rec["edges"], key=lambda e: -e[3])[:10]]
    return "\n".join(lines)


def run_traced(workload: str, argv: list[str], configs: int, pin: dict,
               deadline: float) -> Outcome:
    """One untraced and one traced call; layer metrics come from the traced one."""
    plain = cli_call(argv, False, deadline)
    traced = cli_call(argv, True, deadline)
    whys = [check(plain, pin), check(traced, pin)]
    errors = [why for why in whys if why]
    if "spans" not in traced or "wall_s" not in plain:
        raise BenchError("; ".join(errors) or "traced call returned no spans")
    if plain["sha256"] != traced["sha256"]:
        errors.append("traced data output differs from untraced output")
    metrics, problems = layer_metrics(workload, traced, configs)
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    print(f"untraced wall_s={plain['wall_s']:.3f} traced wall_s={traced['wall_s']:.3f}",
          file=sys.stderr)
    failed = sum(1 for why in whys if why)
    return Outcome(metrics, 2, failed, errors + problems, traced)


def write_pins() -> None:
    """Record exit code, summary and data sha256 of every workload variant."""
    pins: dict = {}
    for name, (make, variants) in WORKLOADS.items():
        for seed in range(variants):
            argv, _ = make(seed)
            rec = cli_call(argv, False, time.monotonic() + RUN_LIMIT_S)
            if rec.get("error"):
                raise BenchError(f"{name} seed {seed}: {rec['error']}")
            key = " ".join(argv)
            pins.setdefault(name, {})[key] = {k: rec[k] for k in ("exit", "summary", "sha256")}
            print(f"{key}: {pins[name][key]} in {rec['wall_s']:.2f} s", file=sys.stderr)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    try:
        require_sources()
        if args.write_pins:
            write_pins()
            return 0
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
        make, _ = WORKLOADS[args.workload]
        cli_argv, configs = make(args.seed)
        pin = pins[args.workload][" ".join(cli_argv)]
        print("environment: " + json.dumps(environment()), file=sys.stderr)
        if args.trace:
            outcome = run_traced(args.workload, cli_argv, configs, pin, deadline)
        else:
            outcome = run_untraced(cli_argv, configs, pin, args.seconds, deadline)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 2
    print("versions: " + json.dumps(
        {k: outcome.sample.get(k) for k in ("python", "numpy", "blas")}), file=sys.stderr)
    for why in outcome.errors:
        print(f"perfbench: FAILED: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
