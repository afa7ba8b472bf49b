#!/usr/bin/env python3
"""SimRank query benchmark: build the program from source, then run one workload.

    python3 perfbench/run.py --workload simpush-fine --seed 1 --seconds 15 --trace 0

The benchmark is an sbt project of its own (perfbench/build.sbt) compiled
together with the repository's sources (src/main/scala, jobs). The first run
in a checkout compiles it and runs its self-tests; later runs reuse the
classes while the sources are unchanged. A run then executes
repro.perfbench.Main in a JVM against the Spark jars of $SPARK_HOME (or of
the spark-submit found on PATH). Everything it writes stays under
perfbench/target. The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
SOURCES = [
    os.path.join(BENCH, "build.sbt"),
    os.path.join(BENCH, "project", "build.properties"),
    os.path.join(BENCH, "src"),
    os.path.join(ROOT, "src", "main"),
    os.path.join(ROOT, "jobs"),
]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

# Spark's module opens for Java 17 (spark-submit adds these itself).
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]

child = None


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def stop_child(*_):
    """Kill the child's whole process group and wait for it to end."""
    if child is not None and child.poll() is None:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


def on_signal(signum, _frame):
    stop_child()
    sys.exit(128 + signum)


def call(cmd, cwd, env, timeout, stdout=None):
    global child
    child = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_child()
        fail("%s did not finish within %d s" % (cmd[0], timeout), 1)
    finally:
        stop_child()


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark installation: set SPARK_HOME or put spark-submit on PATH")
    return home


def fingerprint():
    h = hashlib.sha256()
    for top in SOURCES:
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build(env):
    """Compile and self-test once per source state."""
    stamp = os.path.join(TARGET, "build.stamp")
    want = fingerprint()
    if os.path.exists(stamp) and open(stamp).read() == want:
        return
    print("perfbench: building (sbt compile test)", file=sys.stderr)
    os.makedirs(os.path.join(TARGET, "tmp"), exist_ok=True)
    # Keep sbt's own state and temporary files inside the checkout too.
    sbt_env = dict(env, SBT_OPTS=" ".join([
        env.get("SBT_OPTS", ""), "-XX:-UsePerfData",
        "-Dsbt.global.base=" + os.path.join(TARGET, "sbt-global"),
        "-Djava.io.tmpdir=" + os.path.join(TARGET, "tmp")]).strip())
    code = call(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "test"],
                BENCH, sbt_env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build or self-tests failed (sbt exit %d)" % code)
    os.makedirs(TARGET, exist_ok=True)
    with open(stamp, "w") as fh:
        fh.write(want)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("sources not found: " + ", ".join(os.path.relpath(p, ROOT) for p in missing))
    env = dict(os.environ, SPARK_HOME=spark_jars())
    # Jobs.session's own defaults (local[*], 16 shuffle partitions) for every run.
    env.pop("SPARK_MASTER", None)
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)
    build(env)

    scratch = {k: os.path.join(TARGET, k) for k in ("tmp", "spark-local", "run")}
    for d in scratch.values():
        os.makedirs(d, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cp = os.pathsep.join([os.path.join(TARGET, "scala-2.13", "classes"),
                          os.path.join(env["SPARK_HOME"], "jars", "*")])
    cmd = [java, "-Xmx3g", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + scratch["tmp"],
           "-Dspark.local.dir=" + scratch["spark-local"],
           "-Dspark.sql.warehouse.dir=" + os.path.join(scratch["run"], "warehouse"),
           *JVM_OPENS, "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", TARGET]
    code = call(cmd, scratch["run"], env, RUN_TIMEOUT_S)
    if code != 0:
        fail("benchmark exited with code %d" % code, code if 0 < code < 128 else 1)


if __name__ == "__main__":
    main()
