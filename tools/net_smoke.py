#!/usr/bin/env python3
"""Loopback smoke test for `treeplace serve --listen` (the CI gate for the
async TCP front-end at the CLI level; the in-process coverage lives in
tests/serve/net_server_test.cc and bench/connection_churn.cc).

First checks stdin serving, which runs as one connection on the same
serving loop: a good tree record and then a malformed record fed through
a pipe that stays open must exit 2 within 10 s with the good record's
result printed, and the reference output (`treeplace serve` with the
conversation piped to stdin) must equal a run with stdin redirected
from a regular file.  Then starts the server on an ephemeral port,
drives a few hundred short-lived concurrent connections, each publishing
a tree plus three scenario deltas, and asserts each connection's bytes
are ordered and bit-identical (timings stripped) to the stdin reference.
Finally SIGTERMs the server and asserts a graceful exit with a flushed
summary.

With --shards > 1 the server runs the sharded router and, after the main
connection sweep, the test SIGUSR1s the server to kill one shard and
asserts the survivors keep serving bit-identical results (one retry per
connection tolerates the drain window) and that the summary reports
exactly one killed shard.

Usage: tools/net_smoke.py [--binary build/treeplace] [--shards 1]
                          [--connections 200] [--concurrency 8]
"""

import argparse
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

# The serve-test topology: internal nodes 0/1/2/6, clients 3/4/5/7.
TREE = """treeplace-tree v1
I 0 -1 0 -1
I 1 0 0 -1
I 2 0 0 -1
C 3 1 5
C 4 1 3
C 5 2 4
I 6 2 0 -1
C 7 6 2
"""

# One connection's conversation: the tree plus three delta records.
STREAM = (
    TREE
    + "treeplace-scenario v1 1\nE 2\nE 6 0\n"
    + "treeplace-scenario v1 1\nZ\nR 3 7\n"
    + "treeplace-scenario v1 1\nE 2\nX 2\n"
)

SERVE_ARGS = ["serve", "--algo", "update-dp", "--modes", "10", "--cache", "64"]

TIMING_TOKEN = re.compile(r"\s+(?:queue_s|solve_s)=\S+")


def strip_timings(text: str) -> str:
    """Mirror of serve::strip_timings: drop queue_s=/solve_s= tokens."""
    return "".join(
        TIMING_TOKEN.sub("", line) + "\n" for line in text.splitlines()
    )


def serve_stdin(binary: str, stdin) -> str:
    """Result lines, timings stripped, of `treeplace serve` reading `stdin`
    (bytes through a pipe, or an open file)."""
    feed = {"input": stdin} if isinstance(stdin, bytes) else {"stdin": stdin}
    out = subprocess.run(
        [binary] + SERVE_ARGS, stdout=subprocess.PIPE, check=True, **feed
    ).stdout.decode()
    return strip_timings(
        "".join(line + "\n" for line in out.splitlines()
                if line.startswith("result "))
    )


def check_stdin(binary: str, reference: str) -> str:
    """Stdin-mode checks; returns an error message, or "" when all pass."""
    # A malformed record on a pipe the producer keeps open: the connection
    # fails and the process exits without waiting for end of input.
    proc = subprocess.Popen(
        [binary] + SERVE_ARGS, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    proc.stdin.write((TREE + "treeplace-scenario v1 1\nR 3 garbage\n").encode())
    proc.stdin.flush()
    try:
        code = proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return "stdin: malformed record on an open pipe did not exit in 10 s"
    out = proc.stdout.read().decode()
    proc.stdin.close()
    if code != 2 or "result id=1 topo=1 status=ok" not in out or (
        "# protocol error:" not in out
    ):
        return "stdin: malformed record exited %d, want 2 after the good " \
            "record's result and a protocol error:\n%s" % (code, out)
    with tempfile.TemporaryFile() as f:
        f.write(STREAM.encode())
        f.seek(0)
        if serve_stdin(binary, f) != reference:
            return "stdin: regular-file stdin diverged from piped stdin"
    return ""


def one_connection(
    port: int, reference: str, failures: list, lock, retries: int = 0
) -> None:
    # retries > 0 tolerates the shard-kill drain window: a connection the
    # router handed to the dying shard is closed unserved, and its retry
    # must land on a survivor.
    for attempt in range(retries + 1):
        try:
            with socket.create_connection(
                ("127.0.0.1", port), timeout=30
            ) as s:
                s.sendall(STREAM.encode())
                s.shutdown(socket.SHUT_WR)
                chunks = []
                while True:
                    chunk = s.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
            received = strip_timings(b"".join(chunks).decode())
            if received == reference:
                return
            error = "mismatch:\n--- got ---\n%s--- want ---\n%s" % (
                received,
                reference,
            )
        except OSError as err:
            error = "connection failed: %s" % err
        if attempt < retries:
            time.sleep(0.2)
    with lock:
        failures.append(error)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", default="build/treeplace")
    ap.add_argument("--shards", type=int, default=1)
    ap.add_argument("--connections", type=int, default=200)
    ap.add_argument("--concurrency", type=int, default=8)
    args = ap.parse_args()

    reference = serve_stdin(args.binary, STREAM.encode())
    if "status=ok" not in reference:
        print("smoke: stdin reference has no ok results:\n" + reference)
        return 1
    error = check_stdin(args.binary, reference)
    if error:
        print("smoke: " + error)
        return 1

    serve_args = SERVE_ARGS + ["--listen", "127.0.0.1:0"]
    if args.shards > 1:
        serve_args += ["--shards", str(args.shards)]
    server = subprocess.Popen(
        [args.binary] + serve_args,
        stdout=subprocess.PIPE,
    )
    try:
        # The first stdout line publishes the resolved ephemeral port.
        line = server.stdout.readline().decode()
        match = re.match(r"# listen: 127\.0\.0\.1:(\d+)", line)
        if not match:
            print("smoke: expected '# listen:' line, got: %r" % line)
            return 1
        port = int(match.group(1))

        failures: list = []
        lock = threading.Lock()

        def sweep(connections: int, retries: int) -> None:
            remaining = connections
            while remaining > 0 and not failures:
                threads = [
                    threading.Thread(
                        target=one_connection,
                        args=(port, reference, failures, lock, retries),
                    )
                    for _ in range(min(args.concurrency, remaining))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                remaining -= len(threads)

        sweep(args.connections, 0)

        # Kill one shard between batches (no connections in flight) and
        # assert the survivors keep serving bit-identical results.
        kill_conns = 0
        if args.shards > 1 and not failures:
            server.send_signal(signal.SIGUSR1)
            time.sleep(0.5)  # let the shard drain and leave the ring
            kill_conns = 2 * args.concurrency
            sweep(kill_conns, 1)
    finally:
        server.send_signal(signal.SIGTERM)
        tail = server.stdout.read().decode()
        code = server.wait(timeout=60)

    if failures:
        print("smoke: %d of %d connections diverged from stdin mode"
              % (len(failures), args.connections))
        print(failures[0])
        return 1
    if code != 0:
        print("smoke: server exited %d after graceful drain\n%s" % (code, tail))
        return 1
    if "# serve:" not in tail:
        print("smoke: no summary block after SIGTERM drain:\n" + tail)
        return 1
    served = (args.connections + kill_conns) * 4  # 4 records per connection
    match = re.search(r"# serve: (\d+) requests", tail)
    if not match:
        print("smoke: no '# serve: N requests' line in summary:\n" + tail)
        return 1
    # Retried connections may leave extra requests behind on the drained
    # shard, so the aggregate is a floor, not an exact count.
    if int(match.group(1)) < served:
        print("smoke: summary reports %s requests, want >= %d:\n%s"
              % (match.group(1), served, tail))
        return 1
    if args.shards > 1:
        killed = sum(int(k) for k in re.findall(r" killed=(\d+)", tail))
        if killed != 1:
            print("smoke: summary reports %d killed shards, want 1:\n%s"
                  % (killed, tail))
            return 1
    print("smoke: stdin checks ok; %d connections (%d concurrent, %d "
          "shard%s), all bit-identical to stdin mode; graceful drain ok"
          % (args.connections + kill_conns, args.concurrency, args.shards,
             "" if args.shards == 1 else "s"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
