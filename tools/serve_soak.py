#!/usr/bin/env python3
"""Soak/smoke client for `ddajs serve`.

Spawns the daemon, then drives mixed traffic from several concurrent
clients for a configurable duration:

  * valid analysis requests over a small MiniJS corpus, whose fact
    fingerprints are cross-checked against `ddajs analyze --batch`
    single-shot runs of the same corpus;
  * malformed requests (truncated JSON, wrong types, unknown members,
    huge payloads, bad seed lists) that must produce typed errors;
  * budget-exhausting requests (unbounded loops under a small deadline);
  * fault-injected requests (deterministic governor trips).

Throughout, the script asserts that every response is well-formed and
typed, that the daemon process stays alive, and that its RSS stays under
a bound. At the end it sends SIGTERM and asserts a clean drain: exit
code 0 and a final stats line.

Usage:
  python3 tools/serve_soak.py --ddajs build/tools/ddajs \
      [--duration 20] [--clients 4] [--jobs 8] [--max-rss-mb 512]

Exit code 0 = soak passed; 1 = any assertion failed.
"""

import argparse
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

CORPUS = {
    "dispatch.js": """
function handleA(x) { a_seen = x; return "A"; }
function handleB(x) { b_seen = x; return "B"; }
function dispatch(kind, x) {
  if (kind === 0) { return handleA(x); }
  return handleB(x);
}
var kind = Math.floor(Math.random() * 2);
print(dispatch(kind, 7));
print(dispatch(0, 1));
""",
    "eval_seeded.js": """
var n = Math.floor(Math.random() * 2);
eval("v" + n + " = 1;");
print(n);
""",
    "loops.js": """
var acc = 0;
var obj = {};
for (var i = 0; i < 500; i++) {
  obj["k" + (i % 7)] = i;
  acc = acc + obj["k" + (i % 7)];
}
print(acc);
""",
    "branches.js": """
if (Math.random() < 0.5) { took = "low"; } else { took = "high"; }
var stable = "pre" + "fix";
print(stable);
""",
    "parse_error.js": "var x = (((",
    "program_error.js": "missingFunction();",
}

MALFORMED = [
    "{",
    "not json at all",
    "[1,2,3]",
    '{"cmd":"analyze"}',
    '{"cmd":"bogus"}',
    '{"cmd":"analyze","source":"print(1);","wat":1}',
    '{"cmd":"analyze","source":1}',
    '{"cmd":"analyze","source":"print(1);","seeds":[]}',
    '{"cmd":"analyze","source":"print(1);","seeds":[-1]}',
    '{"cmd":"analyze","source":"print(1);","seeds":["x"]}',
    '{"cmd":"analyze","source":"print(1);","engine":"quantum"}',
    '{"cmd":"analyze","source":"print(1);","inject_fault":"bogus"}',
    "[" * 200,
]

# Over MaxRequestBytes (1 MiB default): the server answers with a typed
# too_large and then drops the connection by design, so this one is sent
# separately and followed by a reconnect.
OVERSIZED = '{"cmd":"analyze","source":"print(1);' + " " * 2_000_000 + '"}'

TYPED_ERRORS = {
    "bad_request", "too_large", "parse_error", "program_error",
    "resource_trap", "overloaded", "shutting_down", "internal",
}

SEEDS = [1, 2]


class Failures:
    def __init__(self):
        self.lock = threading.Lock()
        self.messages = []

    def add(self, msg):
        with self.lock:
            if len(self.messages) < 50:
                self.messages.append(msg)

    def __bool__(self):
        return bool(self.messages)


def recv_line(sock, buf):
    while b"\n" not in buf[0]:
        chunk = sock.recv(65536)
        if not chunk:
            return None
        buf[0] += chunk
    line, _, rest = buf[0].partition(b"\n")
    buf[0] = rest
    return line.decode("utf-8", "replace")


def batch_fingerprints(ddajs, corpus_dir):
    """Single-shot reference run: {basename: payload-dict} via --batch."""
    out = subprocess.run(
        [ddajs, "analyze", "--batch", corpus_dir, "--seeds",
         ",".join(map(str, SEEDS))],
        capture_output=True, text=True, timeout=120)
    results = {}
    for line in out.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        results[os.path.basename(obj["path"])] = obj
    return results


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    sock.settimeout(60)
    return sock


def client_loop(tid, port, deadline, reference, failures, counters):
    rng = random.Random(1000 + tid)
    try:
        sock = connect(port)
    except OSError as e:
        failures.add(f"client {tid}: connect failed: {e}")
        return
    buf = [b""]
    names = sorted(CORPUS)
    rid = 0
    while time.monotonic() < deadline:
        rid += 1
        kind = rng.randrange(20)
        expect_fp = None
        if kind < 10:  # Valid corpus request.
            name = rng.choice(names)
            req = {"id": f"c{tid}-{rid}", "cmd": "analyze",
                   "source": CORPUS[name], "seeds": SEEDS}
            ref = reference.get(name)
            if ref is not None and ref.get("status") == "ok":
                expect_fp = ref["fingerprint"]
        elif kind < 14:  # Malformed.
            line = rng.choice(MALFORMED)
            try:
                sock.sendall(line.encode() + b"\n")
                resp = recv_line(sock, buf)
            except OSError as e:
                failures.add(f"client {tid}: transport on malformed: {e}")
                return
            if resp is None:
                failures.add(f"client {tid}: connection died on malformed input")
                return
            check_response(tid, resp, None, failures, counters)
            continue
        elif kind < 15:  # Oversized line: typed error, then server hangs up.
            try:
                sock.sendall(OVERSIZED.encode() + b"\n")
                resp = recv_line(sock, buf)
            except OSError as e:
                failures.add(f"client {tid}: transport on oversized: {e}")
                return
            if resp is None:
                failures.add(f"client {tid}: no response to oversized line")
                return
            check_response(tid, resp, None, failures, counters)
            sock.close()
            try:
                sock = connect(port)
            except OSError as e:
                failures.add(f"client {tid}: reconnect failed: {e}")
                return
            buf = [b""]
            continue
        elif kind < 18:  # Budget-exhausting.
            req = {"id": f"c{tid}-{rid}", "cmd": "analyze",
                   "source": "while (true) { }", "deadline_ms": 150}
        else:  # Fault-injected.
            req = {"id": f"c{tid}-{rid}", "cmd": "analyze",
                   "source": CORPUS["loops.js"], "seeds": SEEDS,
                   "inject_fault": "steps:50", "no_cache": True}
        try:
            sock.sendall(json.dumps(req).encode() + b"\n")
            resp = recv_line(sock, buf)
        except OSError as e:
            failures.add(f"client {tid}: transport error: {e}")
            return
        if resp is None:
            failures.add(f"client {tid}: connection closed mid-soak")
            return
        check_response(tid, resp, expect_fp, failures, counters)
    sock.close()


def check_response(tid, resp, expect_fp, failures, counters):
    try:
        obj = json.loads(resp)
    except json.JSONDecodeError:
        failures.add(f"client {tid}: unparseable response: {resp[:200]}")
        return
    result = obj.get("result")
    if not isinstance(result, dict) or "status" not in result:
        failures.add(f"client {tid}: untyped response: {resp[:200]}")
        return
    status = result["status"]
    if status == "ok":
        counters["ok"] += 1
    elif status == "error":
        if result.get("error") not in TYPED_ERRORS:
            failures.add(f"client {tid}: unknown error kind: {resp[:200]}")
            return
        counters["error"] += 1
    else:
        failures.add(f"client {tid}: unknown status: {resp[:200]}")
        return
    if expect_fp is not None:
        got = result.get("fingerprint")
        if status != "ok" or got != expect_fp:
            failures.add(
                f"client {tid}: fingerprint mismatch: expected {expect_fp}, "
                f"response {resp[:300]}")
        else:
            counters["fp_checked"] += 1


def rss_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ddajs", default="build/tools/ddajs")
    ap.add_argument("--duration", type=float, default=20.0)
    ap.add_argument("--clients", type=int, default=4)
    ap.add_argument("--jobs", type=int, default=8)
    ap.add_argument("--max-rss-mb", type=float, default=512.0)
    args = ap.parse_args()

    failures = Failures()
    with tempfile.TemporaryDirectory() as corpus_dir:
        for name, source in CORPUS.items():
            with open(os.path.join(corpus_dir, name), "w") as f:
                f.write(source)

        # Single-shot reference fingerprints via --batch.
        reference = batch_fingerprints(args.ddajs, corpus_dir)
        missing = [n for n in CORPUS
                   if n not in reference
                   and not n.startswith(("parse_", "program_"))]
        if missing:
            print(f"FAIL: --batch produced no result for {missing}",
                  file=sys.stderr)
            return 1

        daemon = subprocess.Popen(
            [args.ddajs, "serve", "--port", "0", "--jobs", str(args.jobs),
             "--service-deadline-ms", "5000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            listening = json.loads(daemon.stdout.readline())
            port = listening["port"]
        except (json.JSONDecodeError, KeyError, TypeError):
            print("FAIL: no listening line from daemon", file=sys.stderr)
            daemon.kill()
            return 1
        print(f"daemon pid={daemon.pid} port={port} jobs={args.jobs} "
              f"clients={args.clients} duration={args.duration}s")

        deadline = time.monotonic() + args.duration
        counters = {"ok": 0, "error": 0, "fp_checked": 0}
        threads = [threading.Thread(target=client_loop,
                                    args=(t, port, deadline, reference,
                                          failures, counters))
                   for t in range(args.clients)]
        for t in threads:
            t.start()

        peak_rss = 0.0
        while any(t.is_alive() for t in threads):
            time.sleep(1.0)
            if daemon.poll() is not None:
                failures.add(f"daemon exited mid-soak with {daemon.returncode}")
                break
            rss = rss_mb(daemon.pid)
            if rss is not None:
                peak_rss = max(peak_rss, rss)
                if rss > args.max_rss_mb:
                    failures.add(f"daemon RSS {rss:.0f} MiB exceeds bound "
                                 f"{args.max_rss_mb:.0f} MiB")
                    break
        for t in threads:
            t.join()

        # Graceful drain: SIGTERM -> exit 0 + final stats line.
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            try:
                out, err = daemon.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                out, err = daemon.communicate()
                failures.add("daemon did not drain within 30s of SIGTERM")
            if daemon.returncode != 0:
                failures.add(f"daemon exit code {daemon.returncode} after "
                             f"SIGTERM (stderr: {err[-500:]})")
            if '"event":"stats"' not in out:
                failures.add("no final stats line after drain")
            else:
                print(out.strip().splitlines()[-1])
        else:
            daemon.communicate()

        print(f"responses: ok={counters['ok']} typed-error={counters['error']} "
              f"fingerprints-checked={counters['fp_checked']} "
              f"peak-rss={peak_rss:.0f}MiB")
        if counters["fp_checked"] == 0:
            failures.add("no fingerprints were cross-checked; mix broken?")
        if counters["error"] == 0:
            failures.add("no typed errors observed; hostile mix broken?")

    if failures:
        for msg in failures.messages:
            print("FAIL:", msg, file=sys.stderr)
        return 1
    print("soak passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
