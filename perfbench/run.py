#!/usr/bin/env python3
"""Wall-clock benchmark of the FastMatch reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload flights|taxi --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden   # regenerate perfbench/golden/fingerprints.tsv

The first run in a checkout compiles the library and the benchmark with sbt
(again whenever a source file changed); every run then starts the benchmark
on a plain JVM. Reports and span traces go to perfbench/out/. The last line
on stdout is the JSON result; the exit code is non-zero if any operation
failed or the run could not start.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAMP = os.path.join(HERE, "target", "perfbench-build.json")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden", "fingerprints.tsv")
WORKLOADS = ("flights", "taxi")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# A fixed heap and the parallel collector: with G1's adaptive sizing the
# same run varied by a third from one JVM to the next. No perf-data file,
# which the JVM would write outside the checkout. Spark on Java 17 needs
# the module openings (as spark-submit adds them).
JAVA_OPTS = [
    "-Xms3g",
    "-Xmx3g",
    "-XX:+UseParallelGC",
    "-XX:-UsePerfData",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group. The whole group is killed on
    timeout, or when this script is interrupted or terminated."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop(signum, _frame):
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die(f"stopped by signal {signum}", 1)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die(f"{cmd[0]} timed out after {timeout} s", 1)
    finally:
        for s, h in old.items():
            signal.signal(s, h)
    return p.returncode, out


def source_files():
    """Every file the build reads: both build definitions, the files of
    both project/ directories and the sources the root project and the
    benchmark compile (the root build adds jobs/); sbt's target/ output
    directories excepted."""
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    bases = [os.path.join(ROOT, "project"), os.path.join(HERE, "project"),
             os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"), os.path.join(HERE, "src", "main")]
    for base in bases:
        for d, dirs, names in os.walk(base):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.join(d, n) for n in names]
    return sorted(f for f in files if os.path.isfile(f))


def source_sha():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def classpath(sha):
    """Compiles with sbt unless the stamp says these sources are built."""
    if os.path.isfile(STAMP):
        with open(STAMP) as fh:
            stamp = json.load(fh)
        if stamp.get("source_sha256") == sha:
            return stamp["classpath"]
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.isfile(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    code, out = run_group(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    log = [line for line in out.splitlines() if line.strip()]
    cps = [line.strip() for line in log if not line.startswith("[") and ".jar" in line]
    sys.stderr.write("\n".join(line for line in log if line.strip() not in cps) + "\n")
    if code != 0 or not cps:
        die(f"build failed (sbt exit {code})", 1)
    cp = cps[-1]
    os.makedirs(os.path.dirname(STAMP), exist_ok=True)
    with open(STAMP, "w") as fh:
        json.dump({"source_sha256": sha, "classpath": cp}, fh)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    a = ap.parse_args()
    if not a.write_golden and (a.workload is None or a.seed is None or a.seconds is None):
        ap.error("--workload, --seed and --seconds are required")
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt")) and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        die(f"{ROOT} holds no library sources (build.sbt, src/main/scala)")

    sha = source_sha()
    cp = classpath(sha)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    args = ["--out", OUT, "--golden", GOLDEN]
    if a.write_golden:
        args.append("--write-golden")
    else:
        args += ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                 "--trace", str(a.trace), "--commit", git_commit(), "--source-sha", sha]
    cmd = ["java", *JAVA_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", cp, "repro.perfbench.Main", *args]
    env = dict(os.environ)
    env.pop("SPARK_LOCAL_DIRS", None)  # keep Spark's scratch space inside the checkout
    code, _ = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
    sys.exit(code)


if __name__ == "__main__":
    main()
