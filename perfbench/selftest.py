"""Self-test of the benchmark: runs every workload in a short mode, untraced
and traced, and checks the output against BENCHMARK.json.

    python3 perfbench/selftest.py            # from the repository root

Checks, per workload:
  * the run exits 0 and its last stdout line is the result object with
    exactly `correct`, `attempted`, `failed` and `metrics`;
  * every op passed its output check and the counts are whole numbers;
  * untraced: every end-to-end metric is present, with its unit, and is
    not 0;
  * traced: every per-layer metric is present with its unit,
    `unattributed_ms` is reported and no trace event was dropped;
  * the info line records the seed, nproc, rev, tail percentile and
    sample count;
  * the bypass predictions: no cache lookups on mega-cold and paper-rl,
    no R/L selections on mega-cold and serve-edit.
It also checks that an unknown workload fails without a result.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SECONDS = "2"
SEED = "7"


def run(workload, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", SEED,
           "--seconds", SECONDS, "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout.strip().splitlines(), out.stderr


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tables = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            try:
                code, lines, err = run(workload, trace)
                check(code == 0, f"exit code {code}: {err[-2000:]}")
                result = json.loads(lines[-1])
                info = json.loads(lines[-2])["info"]
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"result keys {sorted(result)}")
                check(result["correct"] is True, "output checks failed")
                check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                      "attempted is not a positive whole number")
                check(isinstance(result["failed"], int) and result["failed"] == 0,
                      f"failed ops: {result['failed']}")
                metrics = result["metrics"]
                table = tables[trace]
                check(set(metrics) == {m["name"] for m in table},
                      f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in table})}")
                for m in table:
                    got = metrics[m["name"]]
                    check(got["unit"] == m["unit"], f"{m['name']} unit {got['unit']}")
                    check(isinstance(got["value"], (int, float)), f"{m['name']} not a number")
                    if trace == "0":
                        check(got["value"] != 0, f"{m['name']} is 0")
                for key in ("seed", "nproc", "rev", "tail_percentile", "tail_samples"):
                    check(key in info, f"info lacks {key}")
                if trace == "1":
                    value = {k: v["value"] for k, v in metrics.items()}
                    check("unattributed_ms" in value, "unattributed_ms missing")
                    check(value["trace.dropped"] == 0, "trace events dropped")
                    if workload in ("mega-cold", "paper-rl"):
                        check(value["cache.hits"] + value["cache.misses"] == 0,
                              "cache lookups on a workload without a cache")
                    if workload in ("mega-cold", "serve-edit"):
                        check(value["select.r_reductions"] + value["select.l_reductions"] == 0,
                              "selection ran on an exact workload")
                print(f"ok   {label}: {result['attempted']} ops")
            except (AssertionError, IndexError, KeyError, ValueError) as e:
                failures += 1
                print(f"FAIL {label}: {e}")
    code, lines, _ = run("no-such-workload", "0")
    if code == 0 or any(l.startswith('{"correct"') for l in lines):
        failures += 1
        print("FAIL unknown workload was accepted")
    else:
        print("ok   unknown workload is refused")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
