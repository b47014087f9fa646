#!/usr/bin/env python3
"""End-to-end smoke for the sharded `annod` front end.

Usage: load_smoke.py [path-to-annod] [protocol-addr] [metrics-addr]

Boots the daemon with an explicit shard count, drives one full protocol
session over a real TCP socket (including the `class` QoS verb), checks
the admission families on the Prometheus metrics listener and that the
`metrics` verb declares the same families, runs a durable failover in a
temp directory (`open … dir`, `attach`, `drop` the leader, `promote` the
follower, which must come up syncing through the shared group
committer, take writes and verify exact), walks `help` (every usage
line's verb, sent bare, is dispatched; `quit` and `exit` close the
session), and shuts the process down. This is the out-of-process
complement to the in-process `serve` bench: it proves the shipped binary
actually serves the sharded front end, not just the library.
"""

import socket
import subprocess
import sys
import tempfile
import time
import urllib.request

BOOT_DEADLINE_SECS = 30


def connect(addr, deadline):
    """Retry until the daemon's listener is up (or the deadline passes)."""
    host, port = addr.rsplit(":", 1)
    last = None
    while time.monotonic() < deadline:
        try:
            sock = socket.create_connection((host, int(port)), timeout=10)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            time.sleep(0.1)
    raise SystemExit(f"annod never came up on {addr}: {last}")


class Session:
    def __init__(self, sock):
        self.io = sock.makefile("rw", encoding="utf-8", newline="\n")
        self.expect_line("OK annod ready")

    def expect_line(self, prefix):
        line = self.io.readline().rstrip("\n")
        if not line.startswith(prefix):
            raise SystemExit(f"expected {prefix!r}, got {line!r}")
        return line

    def cmd(self, line, prefix):
        """One command, one reply line."""
        self.io.write(line + "\n")
        self.io.flush()
        return self.expect_line(prefix)

    def cmd_block(self, line, prefix):
        """One command, a block reply through the `.` terminator."""
        self.io.write(line + "\n")
        self.io.flush()
        block = [self.expect_line(prefix)]
        while True:
            reply = self.io.readline().rstrip("\n")
            block.append(reply)
            if reply == ".":
                return "\n".join(block)


def main(argv):
    annod = argv[1] if len(argv) > 1 else "target/release/annod"
    addr = argv[2] if len(argv) > 2 else "127.0.0.1:7191"
    metrics_addr = argv[3] if len(argv) > 3 else "127.0.0.1:7192"
    proc = subprocess.Popen([annod, "serve", addr, "shards", "2", "metrics", metrics_addr])
    deadline = time.monotonic() + BOOT_DEADLINE_SECS
    try:
        session = Session(connect(addr, deadline))
        session.cmd("ping", "OK pong")
        session.cmd("open db 0.4 0.7", "OK open db")
        for _ in range(3):
            session.cmd("row db 28 85 Annot_1", "OK queued")
        session.cmd("row db 28 85", "OK queued")
        session.cmd("mine db", "OK mined rules=")
        session.cmd_block("rules db top 5", "OK")

        # The QoS verb round-trips and shows up in stats + the scrape.
        session.cmd("class db", "OK class db interactive")
        session.cmd("class db bulk", "OK class db bulk")
        stats = session.cmd_block("stats db", "OK")
        for needle in ("qos_class=bulk", "queue_cap=", "admission_shed=0"):
            if needle not in stats:
                raise SystemExit(f"stats db lacks {needle!r}:\n{stats}")

        # The service-wide rate families appear with the sampler's second
        # 100 ms tick; wait it out so both renderings below have them.
        time.sleep(0.3)
        with urllib.request.urlopen(f"http://{metrics_addr}/metrics", timeout=10) as rsp:
            scrape = rsp.read().decode("utf-8")
        for needle in (
            'anno_admission_queue_depth{dataset="db",class="bulk"}',
            'anno_admission_bulk_class{dataset="db"} 1',
            "anno_admission_shed_ops_total",
            "anno_admission_backpressure_stalls_total",
        ):
            if needle not in scrape:
                raise SystemExit(f"/metrics lacks {needle!r}")

        # `help` promises the `metrics` verb serves the same bytes: hold the
        # shipped binary to it, family by family and type by type.
        def types(text):
            return sorted(line for line in text.splitlines() if line.startswith("# TYPE "))

        verb = session.cmd_block("metrics", "OK metrics")
        if not types(verb) or types(verb) != types(scrape):
            raise SystemExit(
                "`metrics` verb and GET /metrics disagree on # TYPE lines:\n"
                f"verb only: {sorted(set(types(verb)) - set(types(scrape)))}\n"
                f"scrape only: {sorted(set(types(scrape)) - set(types(verb)))}"
            )

        # Failover: a durable leader, a follower tailing its directory, the
        # leader dropped, the follower promoted. The new leader must sync
        # through the shared group committer, as `open … dir` does.
        with tempfile.TemporaryDirectory(prefix="annod-smoke-") as wal_dir:
            session.cmd(f"open lead 0.4 0.7 dir {wal_dir}", "OK open lead")
            for _ in range(3):
                session.cmd("row lead 28 85 Annot_1", "OK queued")
            session.cmd("row lead 28 85", "OK queued")
            session.cmd("mine lead", "OK mined rules=")
            session.cmd(f"attach mirror dir {wal_dir} poll_ms 20", "OK attach mirror")
            session.cmd("catchup mirror", "OK catchup mirror")
            session.cmd("drop lead", "OK dropped lead")
            session.cmd("promote mirror", "OK promoted mirror role=leader")
            stats = session.cmd_block("stats mirror", "OK")
            for needle in ("role=leader", "wal_sync=grouped", "grouped_submitted="):
                if needle not in stats:
                    raise SystemExit(f"promoted stats lack {needle!r}:\n{stats}")
            session.cmd("annotate mirror 3 Annot_1", "OK queued")
            session.cmd("flush mirror", "OK flushed")
            session.cmd("verify mirror", "OK exact=true")
            session.cmd("drop mirror", "OK dropped mirror")

        # `help` is printed from the verb table: every usage line (the ones
        # at the margin; notes are indented) must start with a verb the
        # shipped binary dispatches. Sent bare, it answers OK or the
        # wrong-arguments error, never `unknown command`.
        usages = [l for l in session.cmd_block("help", "OK commands").splitlines()[1:-1] if l[:1].strip()]
        verbs = {usage.split()[0] for usage in usages}
        if not {"ping", "rules", "exit"} <= verbs:
            raise SystemExit(f"`help` lists no usage for ping/rules/exit: {sorted(verbs)}")
        for verb in sorted(verbs - {"quit", "exit"}):
            # A `ping` behind it marks where the reply (one line or a
            # block) ends.
            session.io.write(f"{verb}\nping\n")
            session.io.flush()
            reply = session.io.readline().rstrip("\n")
            while session.io.readline().rstrip("\n") != "OK pong":
                pass
            if not reply.startswith(("OK", f"ERR bad command: {verb} ")):
                raise SystemExit(f"bare {verb!r} -> {reply!r}")

        # `quit` and its alias both close the session.
        for closer in ("quit", "exit"):
            closing = Session(connect(addr, deadline))
            closing.cmd(closer, "OK bye")
            if closing.io.readline() != "":
                raise SystemExit(f"{closer!r} did not close the session")

        session.cmd("quit", "OK bye")
        print(
            "load-smoke: OK (sharded serve, class verb, admission metrics, metrics verb, "
            "durable failover, help walk)"
        )
        return 0
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
