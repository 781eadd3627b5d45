#!/usr/bin/env python3
"""Entry point of the CROWN benchmark.

    python3 crownbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run in a checkout, and any run
after a source file changed, builds the harness together with the engine
sources under src/main/scala with sbt (offline). Every run then starts one
JVM for one workload. The harness prints its metrics; the last line of
standard output is one JSON result. Build output, trace records and Spark
scratch files go to .bench_build/ in the checkout.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENGINE_SRC = os.path.join(ROOT, "src", "main", "scala")
BUILD = os.path.join(ROOT, ".bench_build")
STAMP = os.path.join(BUILD, "crownbench-build.json")

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData"]


def log(msg):
    print(f"[crownbench] {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, on_line=None, **kw):
    """Run `cmd` in its own process group, passing each stdout line to
    `on_line`; kill the whole group if it outlives `timeout` seconds.
    Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, **kw)
    expired = threading.Event()

    def kill():
        expired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        for line in proc.stdout:
            if on_line:
                on_line(line.rstrip("\n"))
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
    return None if expired.is_set() else proc.returncode


def source_files():
    roots = [os.path.join(HERE, "src", "main"), ENGINE_SRC]
    files = [os.path.join(HERE, "build.sbt"),
             os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def fingerprint():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        sys.exit("[crownbench] no Spark distribution: set SPARK_HOME")
    return home


def build():
    """Compile with sbt; return the runtime classpath."""
    fp = fingerprint()
    if os.path.exists(STAMP):
        with open(STAMP) as fh:
            stamp = json.load(fh)
        if stamp.get("fingerprint") == fp:
            return stamp["classpath"]
    log("building with sbt (offline)")
    env = dict(os.environ, SPARK_HOME=spark_home(), COURSIER_MODE="offline")
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true "
                           f"-Dsbt.repository.config={repos} -Dsbt.offline=true")
    lines = []

    def keep(line):
        lines.append(line)
        if not line.startswith(os.sep):
            print(line, file=sys.stderr, flush=True)

    code = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true",
                      f"-Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}",
                      f"-Djava.io.tmpdir={os.path.join(BUILD, 'tmp')}",
                      "-J-XX:-UsePerfData", "-Dsbt.server.autostart=false",
                      "compile", "export Runtime/fullClasspath"],
                     BUILD_TIMEOUT_S, keep, cwd=HERE, env=env)
    cps = [l for l in lines if l.startswith(os.sep) and os.pathsep in l]
    if code != 0 or not cps:
        sys.exit(f"[crownbench] build failed (exit {code})")
    with open(STAMP, "w") as fh:
        json.dump({"fingerprint": fp, "classpath": cps[-1]}, fh)
    return cps[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if not os.path.isdir(ENGINE_SRC):
        sys.exit(f"[crownbench] engine sources not found at {os.path.relpath(ENGINE_SRC, ROOT)}")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cp = build()
    out = os.path.join(BUILD, "out")
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    last = []

    def relay(line):
        print(line, flush=True)
        if line.strip():
            last[:] = [line]

    code = run_group([java, *JVM_OPTS, f"-Djava.io.tmpdir={tmp}",
                      f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}", "-cp", cp, "crownbench.Main",
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", args.trace, "--out", out],
                     RUN_TIMEOUT_S, relay, cwd=ROOT)
    if code != 0:
        sys.exit(f"[crownbench] harness exited with {code}")
    try:
        result = json.loads(last[0], parse_constant=lambda c: 1 / 0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except Exception as e:
        sys.exit(f"[crownbench] no valid result line: {e}")


if __name__ == "__main__":
    main()
