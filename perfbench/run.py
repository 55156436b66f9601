#!/usr/bin/env python3
"""End-to-end benchmark of the repair daemon (``hdpsr serve``).

Run from the repository root::

    python3 perfbench/run.py --workload rebuild --seed 1 --seconds 30 --trace 0

Each run repeats *rounds*. A round launches the real daemon as a child
process on a fresh file-backed sharded store (fsync, repair journal and
overload control on), hashes every chunk file the daemon wrote, drives one
workload through the public ``ServiceClient``, checks every byte that
comes back against those hashes, and shuts the daemon down. Daemon CPU,
I/O bytes and peak memory are read from ``/proc/<pid>``.

Workloads (see README.md for the make-up of each):

* ``rebuild`` - fail disks 0/9/18/27 and repair them concurrently, no
  client load; afterwards every chunk is read back through the front door.
* ``serve`` - no failure; seeded open-loop Poisson reads at a fixed rate.
* ``repair_under_load`` - fail one disk at a time (0, 9, 18, 27) and
  repair it while seeded open-loop reads, a tenth of them of its lost
  chunks, arrive at a fixed rate.

With ``--trace 1`` the daemon runs under ``perfbench/launch.py`` and the
run prints per-layer metrics instead of end-to-end ones. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--inject-wrong-byte`` alters one payload before the
oracle sees it; the run must then report ``correct: false`` (exit 1).
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

# ------------------------------------------------------------------ inputs
#: Store geometry: RS(9,6) over 36 disks in rotating placement, 32 KiB
#: chunks, three spares (disks 36-38), four store shards. ``rebuild`` and
#: ``serve`` put 9 chunks on each disk (36 stripes, 324 chunks, 10.1 MiB);
#: ``repair_under_load`` puts 18 (72 stripes, 648 chunks), so that each
#: one-disk repair lasts long enough to be read against.
NUM_DISKS, N, K = 36, 9, 6
CHUNK = 32 * 1024
CHUNKS_PER_DISK = {"rebuild": 9, "serve": 9, "repair_under_load": 18}
SPARES = (36, 37, 38)
STORE_SHARDS = 4
#: Disks with pairwise disjoint stripe sets under rotating placement.
FAILED = (0, 9, 18, 27)

#: Offered rates (reads/s) of the open-loop workloads; ``serve`` offers
#: exactly 400 reads in a 10 s window per round. Both sit well below what
#: two connections sustain (at 60/s on ``serve`` and 30/s on
#: ``repair_under_load`` the median latency no longer held steady).
SERVE_RATE, SERVE_WINDOW_S = 40.0, 10.0
RUL_RATE, RUL_DEGRADED_SHARE = 20.0, 0.1
#: Fewest rounds per run: ``rebuild`` and ``serve`` then make >= 1,000
#: healthy reads per run, so their recorded p99 has ten samples beyond it.
MIN_ROUNDS = {"rebuild": 4, "serve": 3, "repair_under_load": 3}
#: Stop starting rounds after this many seconds (runs must end < 180 s).
HARD_STOP_S = 120.0

END_TO_END = [
    ("setup_s", "s"),
    ("delivered_mib_per_s", "MiB/s"),
    ("cpu_s_per_gib", "s/GiB"),
    ("read_bytes_per_byte", "B/B"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]

PER_LAYER = [
    ("checksum.calls", "count"), ("checksum.mib", "MiB"), ("checksum.self_s", "s"),
    ("gf.mib", "MiB"), ("gf.self_s", "s"),
    ("ec.mib", "MiB"), ("ec.self_s", "s"),
    ("store.calls", "count"), ("store.read_mib", "MiB"),
    ("store.write_mib", "MiB"), ("store.self_s", "s"), ("store.fsyncs", "count"),
    ("journal.records", "count"), ("journal.mib", "MiB"), ("journal.self_s", "s"),
    ("journal.fsyncs", "count"),
    ("planner.stripes", "count"), ("planner.self_s", "s"),
    ("planner.modeled_repair_s", "s"),
    ("certify.chunks", "count"), ("certify.s", "s"),
    ("admission.grants", "count"), ("admission.fg_wait_s", "s"),
    ("admission.bg_wait_s", "s"),
    ("overload.brownout_s", "s"), ("overload.sheds", "count"),
    ("overload.repair_pause_s", "s"),
    ("sharding.backpressure_s", "s"), ("sharding.batches", "count"),
    ("sharding.chunks_per_batch", "count"),
    ("service.healthy_ms", "ms"), ("service.piggyback_ms", "ms"),
    ("service.decode_ms", "ms"), ("service.piggyback_share", "ratio"),
    ("service.degraded_read_p50_ms", "ms"), ("service.degraded_read_p90_ms", "ms"),
    ("protocol.daemon_self_s", "s"), ("protocol.client_self_s", "s"),
    ("protocol.mib", "MiB"),
    ("netserver.reads", "count"), ("netserver.read_ms", "ms"),
    ("loop.lag_p50_ms", "ms"), ("loop.lag_p99_ms", "ms"),
]

now = time.perf_counter
MiB = 1024 * 1024
GiB = 1024 * MiB


def pct(values: List[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def machine_probe() -> float:
    """Milliseconds for a fixed pure-Python loop (median of five)."""
    times = []
    for _ in range(5):
        start = now()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append(now() - start)
    return statistics.median(times) * 1e3


# ------------------------------------------------------------------ oracle
class Oracle:
    """SHA-256 of every chunk file, read straight from the store directory
    after set-up (so before any disk is failed)."""

    def __init__(self, store: Path, wrong_byte: bool) -> None:
        self.store = store
        self.hashes: Dict[Tuple[int, int], bytes] = {}
        self.disk_of: Dict[Tuple[int, int], int] = {}
        for path in store.glob("shard-*/disk-*/s*.chunk"):
            stripe, shard = (int(x) for x in path.name[1:-len(".chunk")].split("."))
            self.hashes[(stripe, shard)] = hashlib.sha256(path.read_bytes()).digest()
            self.disk_of[(stripe, shard)] = int(path.parent.name.split("-")[1])
        self.wrong_byte = wrong_byte
        self.checked = 0
        self.mismatches: List[str] = []

    def lost_on(self, disk: int) -> List[Tuple[int, int]]:
        return sorted(k for k, d in self.disk_of.items() if d == disk)

    def check(self, key: Tuple[int, int], payload: bytes, what: str) -> bool:
        if self.wrong_byte:
            self.wrong_byte = False
            payload = bytes([payload[0] ^ 0x01]) + payload[1:]
        self.checked += 1
        if hashlib.sha256(payload).digest() != self.hashes.get(key):
            self.mismatches.append(f"{what} {key}")
            return False
        return True

    def check_rebuilt(self, key: Tuple[int, int]) -> bool:
        """The rebuilt chunk, read from its spare's file."""
        name = f"s{key[0]:06d}.{key[1]:03d}.chunk"
        for spare in SPARES:
            path = (self.store / f"shard-{spare % STORE_SHARDS:02d}"
                    / f"disk-{spare:03d}" / name)
            if path.exists():
                return self.check(key, path.read_bytes(), "rebuilt")
        self.mismatches.append(f"rebuilt {key} missing on spares")
        return False


# ------------------------------------------------------------------ daemon
class Daemon:
    """One ``hdpsr serve`` child process on a fresh store."""

    def __init__(
        self, workdir: Path, seed: int, traced: bool, chunks_per_disk: int
    ) -> None:
        self.dir = workdir
        self.store = workdir / "store"
        self.spans = workdir / "spans.json"
        self.port_file = workdir / "port"
        serve = [
            "serve", "--num-disks", str(NUM_DISKS), "--n", str(N), "--k", str(K),
            "--chunk-size", str(CHUNK),
            "--disk-size", str(chunks_per_disk * CHUNK),
            "--placement", "rotating", "--seed", str(seed),
            "--store", str(self.store), "--shards", str(STORE_SHARDS),
            "--journal", str(workdir / "journal"),
            "--port-file", str(self.port_file),
        ]
        if traced:
            self.argv = [sys.executable, str(HERE / "launch.py"), str(self.spans)] + serve
        else:
            self.argv = [sys.executable, "-m", "repro.cli"] + serve
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    async def start(self) -> float:
        """Launch and wait until the daemon listens; returns set-up seconds."""
        self.dir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        log = open(self.dir / "daemon.log", "wb")
        start = now()
        self.proc = subprocess.Popen(
            self.argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT
        )
        log.close()
        while True:
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    self.port = int(text)
                    return now() - start
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} during set-up: "
                    + (self.dir / "daemon.log").read_text()[-2000:]
                )
            await asyncio.sleep(0.002)

    def _proc(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def cpu_s(self) -> float:
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def io(self) -> Tuple[int, int]:
        rows = dict(line.split(":") for line in self._proc("io").splitlines())
        return int(rows["rchar"]), int(rows["wchar"])

    def peak_rss_mib(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    async def wait_exit(self, timeout: float = 60.0) -> int:
        deadline = now() + timeout
        while self.proc.poll() is None:
            if now() > deadline:
                raise RuntimeError("daemon did not exit after shutdown")
            await asyncio.sleep(0.01)
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Meter:
    """Daemon CPU and I/O over one measured phase."""

    def __init__(self, daemon: Daemon) -> None:
        self.daemon = daemon
        self.start = now()
        self.cpu0 = daemon.cpu_s()
        self.io0 = daemon.io()

    def stop(self) -> Tuple[float, float, int, int]:
        """(wall s, cpu s, rchar, wchar) since construction."""
        io1 = self.daemon.io()
        return (now() - self.start, self.daemon.cpu_s() - self.cpu0,
                io1[0] - self.io0[0], io1[1] - self.io0[1])


# ------------------------------------------------------------------- load
class Load:
    """Reads through a FIFO queue served by one worker per connection.

    Open-loop items carry the time they were due; their latency counts
    from then, so time spent queued behind a slow daemon is included.
    Closed-loop items (``due is None``) are timed from when a worker
    takes them.
    """

    def __init__(self, conns, oracle: Oracle, tally, errors: List[str]) -> None:
        self.oracle = oracle
        self.tally = tally
        self.errors = errors
        self.queue: asyncio.Queue = asyncio.Queue()
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.late: List[float] = []
        self.bytes_served = 0
        self.workers = [asyncio.create_task(self._worker(c)) for c in conns]

    async def _read(self, conn, key) -> bytes:
        from repro.service.client import ServiceError

        for attempt in range(8):
            try:
                return await conn.read_chunk(*key)
            except ServiceError as exc:
                if exc.code != "overload" or attempt == 7:
                    raise
                self.tally["retries"] += 1
                await asyncio.sleep(max(exc.retry_after_ms, 10.0) / 1000.0)
        raise AssertionError("unreachable")

    async def _worker(self, conn) -> None:
        from repro.service.client import ServiceError

        while True:
            item = await self.queue.get()
            try:
                if item is None:
                    return
                due, kind, key = item
                start = now() if due is None else due
                self.tally[f"{kind}_attempted"] += 1
                try:
                    payload = await self._read(conn, key)
                except ServiceError as exc:
                    self.tally[f"{kind}_failed"] += 1
                    self.errors.append(f"{kind} {key}: {exc}")
                    continue
                self.latency[kind].append(now() - start)
                self.bytes_served += len(payload)
                self.oracle.check(key, payload, kind)
            finally:
                self.queue.task_done()

    async def offer(self, schedule, stop: Optional[asyncio.Event] = None) -> None:
        """Enqueue ``(offset_s, kind, key)`` arrivals on time (open loop)."""
        origin = now()
        for offset, kind, key in schedule:
            due = origin + offset
            delay = due - now()
            if delay > 0:
                if stop is None:
                    await asyncio.sleep(delay)
                else:
                    try:
                        await asyncio.wait_for(stop.wait(), timeout=delay)
                    except asyncio.TimeoutError:
                        pass
            if stop is not None and stop.is_set():
                return
            self.late.append(now() - due)
            self.queue.put_nowait((due, kind, key))

    def closed(self, kind: str, keys) -> None:
        for key in keys:
            self.queue.put_nowait((None, kind, key))

    async def drain(self) -> None:
        await self.queue.join()

    async def close(self) -> None:
        for _ in self.workers:
            self.queue.put_nowait(None)
        await asyncio.gather(*self.workers)


def poisson(rng: random.Random, rate: float, horizon: float):
    """Arrival offsets of a Poisson process of ``rate`` over ``horizon`` s."""
    t = rng.expovariate(rate)
    while t < horizon:
        yield t
        t += rng.expovariate(rate)


# -------------------------------------------------------------- workloads
async def do_rebuild(ctx, daemon, ctl, load, oracle, rnd) -> dict:
    for disk in FAILED:
        await ctl.call("fail_disk", disk=disk)
    lost = [key for disk in FAILED for key in oracle.lost_on(disk)]
    meter = Meter(daemon)
    jobs = [(await ctl.call("repair", disk=disk))["job_id"] for disk in FAILED]
    ctx.tally["repair_attempted"] += len(jobs)
    summaries = [await ctl.call("wait", job_id=job) for job in jobs]
    wall, cpu, rchar, wchar = meter.stop()
    stats = await ctl.stats()
    ctx.check_repairs(summaries, len(lost))
    for key in lost:
        oracle.check_rebuilt(key)
    # Read every chunk back through the front door (closed loop).
    load.closed("readback", sorted(oracle.hashes))
    await load.drain()
    rebuilt = len(lost) * CHUNK
    return {
        "delivered": rebuilt, "wall": wall, "cpu": cpu, "rchar": rchar,
        "wchar": wchar, "modeled_s": stats["modeled_now"],
        "rebuild_mib_per_s": rebuilt / MiB / wall,
    }


async def do_serve(ctx, daemon, ctl, load, oracle, rnd) -> dict:
    rng = random.Random(f"{ctx.seed}/serve/{rnd}")
    keys = sorted(oracle.hashes)
    # A Poisson process conditioned on its count: the same number of reads
    # every round, at uniformly scattered (exponentially spaced) times.
    count = round(SERVE_RATE * SERVE_WINDOW_S)
    times = sorted(rng.uniform(0.0, SERVE_WINDOW_S) for _ in range(count))
    schedule = [(t, "healthy", rng.choice(keys)) for t in times]
    served0 = load.bytes_served
    meter = Meter(daemon)
    await load.offer(schedule)
    await load.drain()
    wall, cpu, rchar, wchar = meter.stop()
    return {"delivered": load.bytes_served - served0, "wall": wall, "cpu": cpu,
            "rchar": rchar, "wchar": wchar}


async def do_repair_under_load(ctx, daemon, ctl, load, oracle, rnd) -> dict:
    out = {"delivered": 0, "wall": 0.0, "cpu": 0.0, "rchar": 0, "wchar": 0,
           "rebuilt": 0, "repair_wall": 0.0}
    for phase, disk in enumerate(FAILED):
        lost = oracle.lost_on(disk)
        healthy = sorted(set(oracle.hashes) - set(lost))
        rng = random.Random(f"{ctx.seed}/repair_under_load/{rnd}/{phase}")
        schedule = (
            (t, "degraded", rng.choice(lost)) if rng.random() < RUL_DEGRADED_SHARE
            else (t, "healthy", rng.choice(healthy))
            for t in poisson(rng, RUL_RATE, 120.0)
        )
        await ctl.call("fail_disk", disk=disk)
        served0 = load.bytes_served
        meter = Meter(daemon)
        job = (await ctl.call("repair", disk=disk))["job_id"]
        ctx.tally["repair_attempted"] += 1
        stop = asyncio.Event()
        offer = asyncio.create_task(load.offer(schedule, stop))
        summary = await ctl.call("wait", job_id=job)
        repair_wall = now() - meter.start
        stop.set()
        await offer
        await load.drain()
        wall, cpu, rchar, wchar = meter.stop()
        ctx.check_repairs([summary], len(lost))
        for key in lost:
            oracle.check_rebuilt(key)
        out["rebuilt"] += len(lost) * CHUNK
        out["repair_wall"] += repair_wall
        out["delivered"] += len(lost) * CHUNK + load.bytes_served - served0
        out["wall"] += wall
        out["cpu"] += cpu
        out["rchar"] += rchar
        out["wchar"] += wchar
    out["modeled_s"] = (await ctl.stats())["modeled_now"]
    out["rebuild_mib_per_s"] = out["rebuilt"] / MiB / out["repair_wall"]
    return out


WORKLOADS = {
    "rebuild": do_rebuild,
    "serve": do_serve,
    "repair_under_load": do_repair_under_load,
}


# -------------------------------------------------------------------- run
class Run:
    def __init__(self, args) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.wrong_byte = args.inject_wrong_byte
        self.work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
        self.tally: Dict[str, int] = defaultdict(int)
        self.errors: List[str] = []
        self.rounds: List[dict] = []
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.late: List[float] = []
        self.problems: List[str] = []
        self.oracle_checked = 0
        self.layer_totals: Dict[Tuple[str, str], dict] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self.read_paths: Dict[str, List[float]] = defaultdict(list)
        self.client_rec = None
        if self.traced:
            sys.path.insert(0, str(HERE))
            from launch import wrap_protocol
            from spans import Recorder

            self.client_rec = Recorder()
            wrap_protocol(self.client_rec)

    def check_repairs(self, summaries, lost_chunks: int) -> None:
        rebuilt = 0
        for s in summaries:
            rebuilt += int(s["chunks_rebuilt"])
            if s["stripes_lost"] or not s["certified"]:
                self.problems.append(f"repair of disk {s['disk']}: {s}")
                self.tally["repair_failed"] += 1
        if rebuilt != lost_chunks:
            self.problems.append(f"rebuilt {rebuilt} chunks, lost {lost_chunks}")

    async def one_round(self, rnd: int) -> None:
        from repro.service.client import ServiceClient

        per_disk = CHUNKS_PER_DISK[self.workload]
        daemon = Daemon(self.work / f"round-{rnd}", self.seed * 1000 + rnd,
                        self.traced, per_disk)
        try:
            setup = await daemon.start()
            oracle = Oracle(daemon.store, self.wrong_byte)
            self.wrong_byte = False
            if len(oracle.hashes) != NUM_DISKS * per_disk:
                raise RuntimeError(f"store holds {len(oracle.hashes)} chunks")
            ctl = await ServiceClient.connect("127.0.0.1", daemon.port)
            conns = [await ServiceClient.connect("127.0.0.1", daemon.port)
                     for _ in range(min(2, os.cpu_count() or 1))]
            load = Load(conns, oracle, self.tally, self.errors)
            result = await WORKLOADS[self.workload](self, daemon, ctl, load, oracle, rnd)
            await load.close()
            stats = await ctl.stats()
            result["setup"] = setup
            result["rss"] = daemon.peak_rss_mib()
            result["stats"] = stats
            await ctl.call("shutdown")
            for conn in [ctl] + conns:
                await conn.close()
            code = await daemon.wait_exit()
            if code != 0:
                self.problems.append(f"daemon exited with {code}")
            for kind, values in load.latency.items():
                self.latency[kind].extend(values)
            self.late.extend(load.late)
            self.oracle_checked += oracle.checked
            self.problems.extend(f"oracle: {m}" for m in oracle.mismatches)
            if self.traced:
                self.absorb_spans(daemon.spans)
            self.rounds.append(result)
        finally:
            daemon.kill()
            shutil.rmtree(daemon.dir, ignore_errors=True)

    def absorb_spans(self, path: Path) -> None:
        from spans import load as load_spans, rollup

        spans, counters = load_spans(str(path))
        for key, row in rollup(spans).items():
            total = self.layer_totals.setdefault(key, defaultdict(float))
            for field, value in row.items():
                total[field] += value
        for name, value in counters.items():
            self.counters[name] += value
        for span in spans:
            if span[3] == "service" and "path" in span[8]:
                self.read_paths[span[8]["path"]].append(span[6] - span[5])

    async def run(self) -> None:
        start = now()
        durations: List[float] = []
        rnd = 0
        while True:
            elapsed = now() - start
            if rnd >= MIN_ROUNDS[self.workload] and (
                elapsed + statistics.mean(durations) > self.seconds
                or elapsed > HARD_STOP_S
            ):
                break
            t0 = now()
            await self.one_round(rnd)
            durations.append(now() - t0)
            rnd += 1

    # -------------------------------------------------------------- results
    def end_to_end(self) -> Dict[str, float]:
        med = lambda f: statistics.median(f(r) for r in self.rounds)  # noqa: E731
        healthy = self.latency["readback" if self.workload == "rebuild" else "healthy"]
        return {
            "setup_s": med(lambda r: r["setup"]),
            "delivered_mib_per_s": med(lambda r: r["delivered"] / MiB / r["wall"]),
            "cpu_s_per_gib": med(lambda r: r["cpu"] / (r["delivered"] / GiB)),
            "read_bytes_per_byte": med(lambda r: r["rchar"] / r["delivered"]),
            "read_p50_ms": pct(healthy, 0.50) * 1e3,
            "peak_rss_mib": med(lambda r: r["rss"]),
        }

    def detail(self) -> dict:
        """Workload-specific figures printed beside the metrics."""
        out = {
            "rounds": len(self.rounds),
            "write_bytes_per_byte": statistics.median(
                r["wchar"] / r["delivered"] for r in self.rounds),
        }
        for key in ("rebuild_mib_per_s", "modeled_s"):
            if key in self.rounds[0]:
                out[key] = statistics.median(r[key] for r in self.rounds)
        # Tails are recorded, not gated: they do not hold steady here.
        for kind, values in sorted(self.latency.items()):
            out[f"{kind}_reads"] = len(values)
            for q in (0.5, 0.9, 0.99):
                out[f"{kind}_p{round(q * 100)}_ms"] = pct(values, q) * 1e3
        return out

    def per_layer(self) -> Dict[str, float]:
        from spans import rollup

        rounds = len(self.rounds)
        rows = self.layer_totals

        def layer(name, field, names=None):
            return sum(row[field] for (lay, nm), row in rows.items()
                       if lay == name and (names is None or nm in names))

        def mean_ms(values):
            return statistics.mean(values) * 1e3 if values else 0.0

        codec = ("encode_message", "decode_message", "pack_bytes", "unpack_bytes")
        client = rollup(self.client_rec.spans)
        requests = layer("netserver", "count", {"read"})
        n_deg = sum(len(self.read_paths[p]) for p in ("piggyback", "decode"))
        stats = [r["stats"] for r in self.rounds]
        deg = self.latency.get("degraded", [])
        batches = self.counters["sharding.batches"]
        return {
            "checksum.calls": layer("checksum", "count") / rounds,
            "checksum.mib": layer("checksum", "bytes") / MiB / rounds,
            "checksum.self_s": layer("checksum", "self_s") / rounds,
            "gf.mib": layer("gf", "bytes") / MiB / rounds,
            "gf.self_s": layer("gf", "self_s") / rounds,
            "ec.mib": layer("ec", "bytes") / MiB / rounds,
            "ec.self_s": layer("ec", "self_s") / rounds,
            "store.calls": layer("store", "count") / rounds,
            "store.read_mib": layer("store", "bytes", {"get"}) / MiB / rounds,
            "store.write_mib": layer("store", "bytes", {"put"}) / MiB / rounds,
            "store.self_s": layer("store", "self_s") / rounds,
            "store.fsyncs": self.counters["fsync.store"] / rounds,
            "journal.records": layer("journal", "count") / rounds,
            "journal.mib": self.counters["journal.bytes"] / MiB / rounds,
            "journal.self_s": layer("journal", "self_s") / rounds,
            "journal.fsyncs": self.counters["fsync.journal"] / rounds,
            "planner.stripes": self.counters["planner.stripes"] / rounds,
            "planner.self_s": layer("planner", "self_s") / rounds,
            "planner.modeled_repair_s": statistics.median(
                r.get("modeled_s", 0.0) for r in self.rounds),
            "certify.chunks": self.counters["certify.chunks"] / rounds,
            "certify.s": layer("certify", "incl_s") / rounds,
            "admission.grants": layer("admission", "count") / rounds,
            "admission.fg_wait_s": layer("admission", "incl_s", {"foreground"}) / rounds,
            "admission.bg_wait_s": layer("admission", "incl_s", {"background"}) / rounds,
            "overload.brownout_s": self.counters["overload.brownout_s"] / rounds,
            "overload.sheds": sum(
                s.get("overload", {}).get("sheds_total", 0) for s in stats) / rounds,
            "overload.repair_pause_s": self.counters["overload.repair_pause_s"] / rounds,
            "sharding.backpressure_s": layer("sharding", "incl_s") / rounds,
            "sharding.batches": batches / rounds,
            "sharding.chunks_per_batch": (
                self.counters["sharding.batch_chunks"] / batches if batches else 0.0),
            "service.healthy_ms": mean_ms(self.read_paths["healthy"]),
            "service.piggyback_ms": mean_ms(self.read_paths["piggyback"]),
            "service.decode_ms": mean_ms(self.read_paths["decode"]),
            "service.piggyback_share": (
                len(self.read_paths["piggyback"]) / n_deg if n_deg else 0.0),
            "service.degraded_read_p50_ms": pct(deg, 0.50) * 1e3,
            "service.degraded_read_p90_ms": pct(deg, 0.90) * 1e3,
            "protocol.daemon_self_s": layer("protocol", "self_s", codec) / rounds,
            "protocol.client_self_s": sum(
                row["self_s"] for (_, nm), row in client.items() if nm in codec) / rounds,
            "protocol.mib": layer("protocol", "bytes", codec) / MiB / rounds,
            "netserver.reads": requests / rounds,
            "netserver.read_ms": (
                layer("netserver", "incl_s", {"read"}) / requests * 1e3
                if requests else 0.0),
            "loop.lag_p50_ms": statistics.median(
                s.get("runtime", {}).get("loop_lag_p50_seconds", 0.0) for s in stats) * 1e3,
            "loop.lag_p99_ms": statistics.median(
                s.get("runtime", {}).get("loop_lag_p99_seconds", 0.0) for s in stats) * 1e3,
        }

    def ops(self) -> Tuple[int, int, dict]:
        kinds = sorted({k.rsplit("_", 1)[0] for k in self.tally
                        if k.endswith("_attempted")})
        table = {k: {"attempted": self.tally[f"{k}_attempted"],
                     "failed": self.tally[f"{k}_failed"]} for k in kinds}
        attempted = sum(row["attempted"] for row in table.values())
        failed = sum(row["failed"] for row in table.values())
        return attempted, failed, table


async def main_async(args) -> int:
    run = Run(args)
    probe_ms = machine_probe()
    try:
        await asyncio.wait_for(run.run(), timeout=170.0)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass
    attempted, failed, table = run.ops()
    correct = not run.problems and run.oracle_checked > 0
    metrics = run.per_layer() if run.traced else run.end_to_end()
    units = dict(PER_LAYER if run.traced else END_TO_END)
    print("ops: " + json.dumps({**table, "retries": run.tally["retries"],
                                "oracle_checks": run.oracle_checked}))
    late = run.late
    print("steadiness: " + json.dumps({
        "probe_ms": round(probe_ms, 3),
        "send_late_p50_ms": round(pct(late, 0.50) * 1e3, 3) if late else None,
        "send_late_p99_ms": round(pct(late, 0.99) * 1e3, 3) if late else None,
        "send_late_max_ms": round(max(late) * 1e3, 3) if late else None,
    }))
    detail = run.detail()
    if run.traced:
        detail["end_to_end_traced"] = run.end_to_end()
    print("detail: " + json.dumps(detail))
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for error in run.errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-byte", action="store_true",
                        help="self-check: alter one payload before the oracle")
    args = parser.parse_args()
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program source under {SRC}: run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return asyncio.run(main_async(args))


if __name__ == "__main__":
    sys.exit(main())
