"""Traced launcher: run ``hdpsr serve`` with spans around its layers.

Usage::

    python perfbench/launch.py SPANS.json serve [serve arguments...]

Before handing ``argv`` to :func:`repro.cli.main`, this wraps the public
functions of each layer the benchmark rolls up (see README.md) with a
:class:`spans.Recorder`. Nothing in the program changes; the spans and
counters are written to ``SPANS.json`` when the daemon exits.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import _PARENT, _REQUEST, Recorder, nbytes_of, now  # noqa: E402

#: Attrs dict of the innermost ``RepairService.read_chunk`` span.
_READ_ATTRS: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_read_attrs", default=None
)


def _arg_size(index):
    return lambda args, kwargs, result: nbytes_of(args[index])


def _result_size(args, kwargs, result):
    return nbytes_of(result)


def wrap_protocol(rec: Recorder) -> None:
    """Spans around the wire codec (used on both ends of the connection)."""
    from repro.service import protocol

    protocol.encode_message = rec.wrap(
        "protocol", "encode_message", protocol.encode_message, _result_size)
    protocol.decode_message = rec.wrap(
        "protocol", "decode_message", protocol.decode_message, _arg_size(0))
    protocol.pack_bytes = rec.wrap(
        "protocol", "pack_bytes", protocol.pack_bytes, _arg_size(0))
    protocol.unpack_bytes = rec.wrap(
        "protocol", "unpack_bytes", protocol.unpack_bytes, _result_size)


def wrap_netserver(rec: Recorder) -> None:
    """One ``netserver`` span per request: from ``read_message`` returning
    it to ``encode_message`` of its reply, on the connection's task."""
    from repro.service import protocol

    read_message, encode_message = protocol.read_message, protocol.encode_message
    open_requests: dict = {}

    async def traced_read(reader, max_bytes=protocol.MAX_MESSAGE_BYTES):
        msg = await read_message(reader, max_bytes)
        if msg is not None:
            rid = rec.new_id()
            _REQUEST.set(rid)
            _PARENT.set((rid, "netserver"))
            open_requests[asyncio.current_task()] = (rid, now(), str(msg.get("op")))
        return msg

    def traced_encode(msg):
        try:
            task = asyncio.current_task()
        except RuntimeError:
            task = None
        entry = open_requests.pop(task, None)
        if entry is not None:
            rid, start, op = entry
            rec.add(rid, 0, "netserver", op, start, now())
            _PARENT.set((0, ""))
            _REQUEST.set(0)
        return encode_message(msg)

    protocol.read_message = traced_read
    protocol.encode_message = traced_encode


def install(rec: Recorder) -> None:
    """Wrap every layer the per-layer rollup reports."""
    import repro.core as core
    import repro.ec.decoder as ec_decoder
    import repro.ec.encoder as ec_encoder
    import repro.ec.lrc as ec_lrc
    import repro.ec.partial as ec_partial
    import repro.gf as gf_pkg
    import repro.gf.arithmetic as gf_arith
    import repro.hdss.store as store_mod
    import repro.journal.journal as journal_mod
    import repro.journal.wal as wal
    import repro.service.cluster as cluster_mod
    import repro.utils.checksum as checksum_mod
    from repro.hdss.server import HighDensityStorageServer
    from repro.service.admission import DiskGate
    from repro.service.overload import OverloadController
    from repro.service.service import RepairService
    from repro.service.sharding import AsyncShardWriter

    # checksum: every module that bound crc32c by name.
    crc = rec.wrap("checksum", "crc32c", checksum_mod.crc32c, _arg_size(0))
    for mod in (checksum_mod, store_mod, wal, cluster_mod):
        mod.crc32c = crc

    # gf: the multiply-accumulate kernel, wherever it was imported.
    fma = rec.wrap("gf", "gf_mul_add_scalar", gf_arith.gf_mul_add_scalar,
                   _arg_size(2))
    for mod in (gf_arith, gf_pkg, ec_encoder, ec_partial, ec_decoder, ec_lrc):
        if hasattr(mod, "gf_mul_add_scalar"):
            mod.gf_mul_add_scalar = fma

    # ec: partial decode and encode.
    pd = ec_partial.PartialDecoder
    pd.feed = rec.wrap("ec", "feed", pd.feed, lambda a, k, r: sum(
        nbytes_of(v) for v in a[1].values()))
    pd.results = rec.wrap("ec", "results", pd.results, lambda a, k, r: sum(
        nbytes_of(v) for v in (r or {}).values()))
    ec_encoder.RSCode.encode = rec.wrap(
        "ec", "encode", ec_encoder.RSCode.encode,
        lambda a, k, r: sum(nbytes_of(v) for v in a[1]))

    # store: chunk files (self time nets out the checksum spans inside).
    fcs = store_mod.FileChunkStore
    fcs.get = rec.wrap("store", "get", fcs.get, _result_size)
    fcs.put = rec.wrap("store", "put", fcs.put, _arg_size(3))
    fcs.verify_chunk = rec.wrap("store", "verify_chunk", fcs.verify_chunk)
    put_many = fcs.put_many

    def traced_put_many(self, items):
        rec.count("sharding.batches")
        rec.count("sharding.batch_chunks", len(items))
        return put_many(self, items)

    fcs.put_many = traced_put_many

    fsync = os.fsync

    def traced_fsync(fd):
        rec.count(f"fsync.{rec.current_layer() or 'other'}")
        return fsync(fd)

    os.fsync = traced_fsync

    # journal: the four record kinds of a repair; bytes from the encoder.
    rj = journal_mod.RepairJournal
    for name in ("begin", "round_commit", "stripe_done", "complete"):
        setattr(rj, name, rec.wrap("journal", name, getattr(rj, name)))
    encode_record = wal.encode_record

    def traced_encode_record(record):
        frame = encode_record(record)
        rec.count("journal.bytes", len(frame))
        return frame

    wal.encode_record = traced_encode_record

    # planner: every scheme class that defines its own build_plan.
    seen = set()
    for algo in core.ALGORITHMS.values():
        for cls in algo.__mro__:
            if "build_plan" in cls.__dict__ and cls not in seen:
                seen.add(cls)
                cls.build_plan = _planner_wrap(rec, cls.__dict__["build_plan"])

    # certify: the parity scrub after each repair.
    scrub = rec.wrap("certify", "scrub", HighDensityStorageServer.scrub)

    def traced_scrub(self, stripe_indices=None):
        count = len(stripe_indices) if stripe_indices is not None else len(self.layout)
        rec.count("certify.chunks", count * self.config.n)
        return scrub(self, stripe_indices)

    HighDensityStorageServer.scrub = traced_scrub

    # admission: entry into DiskGate.read until the slot is granted.
    gate_read = DiskGate.read

    class _TimedSlot:
        def __init__(self, cm, foreground):
            self._cm, self._fg = cm, foreground

        async def __aenter__(self):
            parent = _PARENT.get()[0]
            start = now()
            result = await self._cm.__aenter__()
            rec.add(rec.new_id(), parent, "admission",
                    "foreground" if self._fg else "background", start, now())
            return result

        async def __aexit__(self, *exc):
            return await self._cm.__aexit__(*exc)

    def traced_gate_read(self, disk_id, foreground=False, deadline=None):
        return _TimedSlot(gate_read(self, disk_id, foreground, deadline), foreground)

    DiskGate.read = traced_gate_read

    # overload: repair pacing and time spent browned out (level >= 1).
    repair_pause = OverloadController.repair_pause

    def traced_repair_pause(self):
        pause = repair_pause(self)
        rec.count("overload.repair_pause_s", pause)
        return pause

    OverloadController.repair_pause = traced_repair_pause
    observe_wait = OverloadController.observe_wait
    brown = {"since": None}

    def traced_observe_wait(self, disk_id, waited_seconds):
        observe_wait(self, disk_id, waited_seconds)
        level = max((w.level for w in self._disks.values()), default=0)
        if level and brown["since"] is None:
            brown["since"] = now()
        elif not level and brown["since"] is not None:
            rec.count("overload.brownout_s", now() - brown["since"])
            brown["since"] = None

    OverloadController.observe_wait = traced_observe_wait

    def close_brownout():
        if brown["since"] is not None:
            rec.count("overload.brownout_s", now() - brown["since"])

    rec.finalizers.append(close_brownout)

    # sharding: time put() blocks on a full shard queue (backpressure).
    AsyncShardWriter.put = rec.wrap_async("sharding", "put", AsyncShardWriter.put)

    # service: front-door reads, tagged with the path that served them.
    def tag_path(attrs):
        token = _READ_ATTRS.set(attrs)
        return lambda: _READ_ATTRS.reset(token)

    RepairService.read_chunk = rec.wrap_async(
        "service", "read_chunk", RepairService.read_chunk, attrs_hook=tag_path)
    observe_read = RepairService._observe_read

    def traced_observe_read(self, registry, path, started):
        attrs = _READ_ATTRS.get()
        if attrs is not None:
            attrs["path"] = path
        return observe_read(self, registry, path, started)

    RepairService._observe_read = traced_observe_read

    # The netserver wrappers go outside the codec ones, so a request span
    # closes before its reply is encoded.
    wrap_protocol(rec)
    wrap_netserver(rec)


def _planner_wrap(rec: Recorder, build_plan):
    traced = rec.wrap("planner", "build_plan", build_plan)

    def counted(self, L, *args, **kwargs):
        rec.count("planner.stripes", len(L))
        return traced(self, L, *args, **kwargs)

    return counted


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: launch.py SPANS.json serve [args...]", file=sys.stderr)
        return 2
    rec = Recorder()
    install(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        for finish in rec.finalizers:
            finish()
        rec.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
