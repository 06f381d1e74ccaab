"""Benchmark of the Table 1 methods on seeded path-join workloads.

Usage (from the root of the repository):
  python3 perfbench/run.py --workload t1 --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark (perfbench/build.py), then runs one
benchmark process (perfbench/src/Main.scala) with a pinned JVM. Its stdout
is a JSON record of the run followed, as the last line, by the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True
import build  # noqa: E402

WORKLOADS = ("t1", "blowup")
HEAP = "3g"
# the JVM's limit beyond --seconds: start, set-up, warm-up, the last call
# that may overrun the window, and the scoring
ALLOWANCE_S = 120


def git_sha() -> str:
    if not Path(".git").exists():
        return "not a git checkout"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        return "git unavailable"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()

    classes, digest = build.build()
    work = build.build_dir() / "run"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    here = Path(__file__).resolve().parent
    cmd = [
        "java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
        f"-Djava.io.tmpdir={work / 'tmp'}",
        f"-Dlog4j2.configurationFile={here / 'log4j2.properties'}",
        "-cp", f"{classes}:{build.spark_jars()}/*",
        "perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--work-dir", str(work),
        "--git-sha", git_sha(), "--source-sha", digest,
    ]
    timeout = ALLOWANCE_S + 1.5 * a.seconds
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, cwd=work)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {timeout:.0f} s", file=sys.stderr)
        return 3
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"perfbench: benchmark process failed ({proc.returncode})", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
