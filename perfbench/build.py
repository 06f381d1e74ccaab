"""Build file of the benchmark: compiles the program's sources
(src/main/scala) and the benchmark's (perfbench/src) with the Scala compiler
that ships in the Spark distribution ($SPARK_HOME, or the one whose
spark-submit is on PATH), against Spark's jars.

Usage: python3 perfbench/build.py   (from the root of the repository)

Classes go to <build dir>/classes-<hash of every source>, so an unchanged
tree is not compiled twice. The build dir is $CARGO_TARGET_DIR if set, else
.bench_build, inside the repository.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

PROGRAM_SOURCES = Path("src/main/scala")
BENCH_SOURCES = Path("perfbench/src")


def spark_jars() -> Path:
    """$SPARK_HOME/jars, else the jars beside the first spark-submit on PATH
    that has them."""
    homes = [os.environ["SPARK_HOME"]] if os.environ.get("SPARK_HOME") else [
        Path(d, "spark-submit").resolve().parent.parent
        for d in os.environ.get("PATH", "").split(os.pathsep) if Path(d, "spark-submit").is_file()]
    for home in homes:
        jars = Path(home) / "jars"
        if any(jars.glob("spark-sql_*.jar")):
            return jars
    sys.exit("perfbench: no Spark jars found; set SPARK_HOME")


def sources() -> list:
    if not PROGRAM_SOURCES.is_dir():
        sys.exit(f"perfbench: {PROGRAM_SOURCES} not found; run from the root of the repository")
    files = sorted(PROGRAM_SOURCES.rglob("*.scala")) + sorted(BENCH_SOURCES.rglob("*.scala"))
    if not files:
        sys.exit("perfbench: no Scala sources found")
    return files


def source_hash(files: list) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build() -> tuple:
    """Compile if needed; returns (classes dir, source hash)."""
    files = sources()
    digest = source_hash(files)
    out = build_dir() / f"classes-{digest[:16]}"
    if (out / "BUILD_OK").exists():
        return out, digest
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cp = f"{spark_jars()}/*"
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={out}", "-cp", cp, "scala.tools.nsc.Main", "-usejavacp",
           "-nowarn", "-d", str(out)] + [str(f) for f in files]
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        shutil.rmtree(out, ignore_errors=True)
        sys.exit(f"perfbench: compilation failed ({res.returncode})")
    (out / "BUILD_OK").write_text(digest + "\n")
    return out, digest


if __name__ == "__main__":
    print(build()[0])
