"""``repro.oskern.journal``: a write-ahead journal for MSR state.

The tools in this suite mutate persistent hardware state: PERFEVTSEL
programming, counter preloads, uncore socket locks (paper §III.C) and
the ``IA32_MISC_ENABLE`` prefetcher bits (§II.D).  A process that dies
mid-session leaves all of it behind — counters enabled, prefetchers
toggled, sockets locked — and every later measurement starts from a
dirty baseline.  The journal makes that failure mode recoverable:

* **before the driver mutates a register** it appends one checksummed
  record carrying the before-value, the new value, the cpu, the
  register address and the session epoch (write-ahead ordering: if
  the record is missing, the write did not happen);
* **socket-lock transitions** are journaled the same way (socket,
  owner pid, epoch), so a recovering process can reconstruct which
  locks a dead owner still holds;
* after a crash, :mod:`repro.oskern.recovery` replays the write
  records *backwards*, restoring bit-identical pristine state, and
  reclaims stale locks by probing owner liveness.

Record integrity is per-record CRC32.  A record that fails its
checksum at the **tail** is a torn write — the crash happened during
the append, before the MSR write it guarded, so the record is
truncated and recovery proceeds.  A bad record *followed by valid
records* means the history itself is corrupt; that raises
:class:`~repro.errors.JournalCorruptError` and recovery refuses
(mis-restoring is worse than not restoring).

The journal is in-memory by default (crash tests kill the simulated
process model, not the interpreter) and file-backed when given a
path, which is what makes CLI-level ``--recover`` work across real
process boundaries.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

from repro import trace as _trace
from repro.errors import JournalCorruptError, JournalError
from repro.hw import registers as regs
from repro.hw.spec import ArchSpec, per_spec
from repro.trace.metrics import MetricsRegistry

#: File header: magic + format version (little-endian u16) + padding.
MAGIC = b"RJRN"
FORMAT_VERSION = 1
HEADER = MAGIC + struct.pack("<HH", FORMAT_VERSION, 0)

#: Record payload: seq u32, epoch u32, op u8, pad u8, cpu u16,
#: address u32, before u64, after u64 — followed by CRC32 u32 over
#: the payload bytes.
_PAYLOAD = struct.Struct("<IIBBHIQQ")
_CRC = struct.Struct("<I")
RECORD_SIZE = _PAYLOAD.size + _CRC.size

OP_WRITE = 1    # cpu/address/before/after describe one MSR write
OP_LOCK = 2     # cpu=socket, address=owner pid, before=epoch
OP_UNLOCK = 3   # cpu=socket, address=owner pid, before=epoch


@dataclass(frozen=True)
class JournalRecord:
    """One journal entry (see the module docstring for the op kinds)."""

    seq: int
    epoch: int
    op: int
    cpu: int          # hardware thread for writes; socket for locks
    address: int      # MSR address for writes; owner pid for locks
    before: int       # previous register value; epoch for lock ops
    after: int        # value being written; 0 for lock ops

    def encode(self) -> bytes:
        payload = _PAYLOAD.pack(self.seq, self.epoch, self.op, 0,
                                self.cpu, self.address,
                                self.before, self.after)
        return payload + _CRC.pack(zlib.crc32(payload))

    @classmethod
    def decode(cls, blob: bytes) -> "JournalRecord":
        """Decode one record, raising :class:`JournalError` on a bad
        length or checksum (the caller decides torn vs corrupt)."""
        if len(blob) != RECORD_SIZE:
            raise JournalError(
                f"short journal record: {len(blob)} of {RECORD_SIZE} bytes")
        payload, crc = blob[:_PAYLOAD.size], blob[_PAYLOAD.size:]
        if zlib.crc32(payload) != _CRC.unpack(crc)[0]:
            raise JournalError("journal record checksum mismatch")
        seq, epoch, op, _pad, cpu, address, before, after = \
            _PAYLOAD.unpack(payload)
        return cls(seq, epoch, op, cpu, address, before, after)


@dataclass
class JournalScan:
    """Result of validating a journal image."""

    records: list[JournalRecord]
    torn_bytes: int = 0       # truncated tail garbage (expected on crash)

    def outstanding_locks(self) -> dict[int, tuple[int, int]]:
        """socket -> (owner pid, epoch) of locks acquired but never
        released, in journal order (latest transition wins)."""
        held: dict[int, tuple[int, int]] = {}
        for r in self.records:
            if r.op == OP_LOCK:
                held[r.cpu] = (r.address, r.before)
            elif r.op == OP_UNLOCK:
                held.pop(r.cpu, None)
        return held


@per_spec
def state_mutating_addresses(spec: ArchSpec) -> frozenset[int]:
    """Every MSR address the tool layer may legitimately mutate on an
    architecture: PERFEVTSEL/config registers, the counter registers
    themselves (zeroing/preloads), the Intel global- and fixed-control
    registers, the uncore controls, and ``IA32_MISC_ENABLE`` where
    likwid-features applies.

    This is the journal's write-surface classification: the journaling
    driver API refuses addresses outside it (a raw register the tools
    have no business mutating), and the LK5xx lint statically verifies
    the classification covers every register the programmer writes.
    Computed once per ArchSpec: every driver of an arch shares it."""
    pmu = spec.pmu
    addrs: set[int] = set()
    for i in range(pmu.num_pmcs):
        addrs.add(pmu.evtsel_address(i))
        addrs.add(pmu.pmc_address(i))
    if pmu.has_fixed:
        addrs.update(regs.IA32_FIXED_CTR0 + i
                     for i in range(regs.NUM_FIXED_CTRS))
        addrs.add(regs.IA32_FIXED_CTR_CTRL)
    if pmu.has_global_ctrl:
        addrs.add(pmu.global_ctrl_address())
    if pmu.has_global_status:
        addrs.add(regs.IA32_PERF_GLOBAL_OVF_CTRL)
    if pmu.has_uncore:
        addrs.add(regs.MSR_UNCORE_PERF_GLOBAL_CTRL)
        for i in range(pmu.num_uncore_pmcs):
            addrs.add(regs.MSR_UNCORE_PERFEVTSEL0 + i)
            addrs.add(regs.MSR_UNCORE_PMC0 + i)
    if pmu.has_uncore_fixed:
        addrs.add(regs.MSR_UNCORE_FIXED_CTR0)
        addrs.add(regs.MSR_UNCORE_FIXED_CTR_CTRL)
    if spec.has_misc_enable:
        addrs.add(regs.IA32_MISC_ENABLE)
    return frozenset(addrs)


class MsrJournal:
    """The write-ahead journal itself: an append-only record log.

    In-memory when ``path`` is None (the test and library default);
    file-backed otherwise, loading any existing journal image at
    construction so a recovering process sees what the crashed one
    left behind.  Appends are flushed per record — a journal that
    lied about durability could not truncate torn writes honestly."""

    def __init__(self, path: str | os.PathLike | None = None, *,
                 metrics: MetricsRegistry | None = None):
        self.path = os.fspath(path) if path is not None else None
        self.metrics = metrics if metrics is not None else _trace.metrics()
        self._records = self.metrics.counter("journal.records")
        self.buffer = bytearray()
        self._seq = 0
        self._epoch = 0
        self._last: tuple | None = None   # consecutive-duplicate filter
        if self.path is not None and os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                self.buffer = bytearray(fh.read())
        if self.buffer:
            self._check_header()
            scan = self.scan()
            if scan.records:
                self._seq = scan.records[-1].seq + 1
                self._epoch = max(r.epoch for r in scan.records)

    # -- low-level image handling ---------------------------------------------

    def _check_header(self) -> None:
        if len(self.buffer) < len(HEADER) or \
                bytes(self.buffer[:len(MAGIC)]) != MAGIC:
            raise JournalCorruptError(
                f"not a journal: bad magic in "
                f"{self.path or '<memory>'!s}")
        version = struct.unpack_from("<H", self.buffer, len(MAGIC))[0]
        if version != FORMAT_VERSION:
            raise JournalError(
                f"journal format v{version} not supported "
                f"(this build writes v{FORMAT_VERSION})")

    def _flush(self, data: bytes) -> None:
        if self.path is None:
            return
        mode = "ab" if os.path.exists(self.path) else "wb"
        with open(self.path, mode) as fh:
            if mode == "wb":
                fh.write(bytes(self.buffer[:-len(data)]))
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())

    def _append(self, epoch: int, op: int, cpu: int, address: int,
                before: int, after: int) -> None:
        # This is the per-MSR-write hot path (benchmarked by
        # test_bench_journal_overhead): pack directly instead of
        # routing through a JournalRecord instance.
        key = (epoch, op, cpu, address, before, after)
        if key == self._last:
            # A retried operation re-journals the identical intent;
            # recovery is idempotent either way, but the log (and the
            # journal.records metric) should not double-count it.
            return
        self._last = key
        if not self.buffer:
            self.buffer += HEADER
            if self.path is not None:
                self._flush(HEADER)
        payload = _PAYLOAD.pack(self._seq, epoch, op, 0, cpu,
                                address, before, after)
        blob = payload + _CRC.pack(zlib.crc32(payload))
        self.buffer += blob
        if self.path is not None:
            self._flush(blob)
        self._seq += 1
        self._records.incr()

    # -- epochs ----------------------------------------------------------------

    def begin_epoch(self) -> int:
        """Allocate the next session epoch (monotonic per journal)."""
        self._epoch += 1
        return self._epoch

    # -- appends ---------------------------------------------------------------

    def record_write(self, epoch: int, cpu: int, address: int,
                     before: int, after: int) -> None:
        # _append, manually inlined: this runs once per MSR write in
        # every measurement (test_bench_journal_overhead prices it).
        key = (epoch, OP_WRITE, cpu, address, before, after)
        if key == self._last:
            return
        self._last = key
        if not self.buffer:
            self.buffer += HEADER
            if self.path is not None:
                self._flush(HEADER)
        payload = _PAYLOAD.pack(self._seq, epoch, OP_WRITE, 0, cpu,
                                address, before, after)
        blob = payload + _CRC.pack(zlib.crc32(payload))
        self.buffer += blob
        if self.path is not None:
            self._flush(blob)
        self._seq += 1
        self._records.incr()

    def record_lock(self, epoch: int, socket: int, pid: int) -> None:
        self._append(epoch, OP_LOCK, socket, pid, epoch, 0)

    def record_unlock(self, epoch: int, socket: int, pid: int) -> None:
        self._append(epoch, OP_UNLOCK, socket, pid, epoch, 0)

    # -- scanning and retirement ----------------------------------------------

    def scan(self) -> JournalScan:
        """Validate the journal image record by record.

        A checksum/length failure on the *last* record is a torn
        write: it is dropped (and physically truncated, so the next
        scan is clean) because write-ahead ordering guarantees the
        guarded MSR write never happened.  A failure anywhere earlier
        raises :class:`JournalCorruptError`."""
        if not self.buffer:
            return JournalScan([])
        self._check_header()
        body = bytes(self.buffer[len(HEADER):])
        records: list[JournalRecord] = []
        offset = 0
        while offset < len(body):
            chunk = body[offset:offset + RECORD_SIZE]
            try:
                records.append(JournalRecord.decode(chunk))
            except JournalError:
                if offset + RECORD_SIZE < len(body):
                    raise JournalCorruptError(
                        f"journal record at byte {len(HEADER) + offset} "
                        f"is corrupt but later records follow; history "
                        f"is unrecoverable") from None
                torn = len(body) - offset
                del self.buffer[len(HEADER) + offset:]
                self._rewrite()
                self.metrics.incr("journal.torn_records_truncated")
                return JournalScan(records, torn_bytes=torn)
            offset += RECORD_SIZE
        return JournalScan(records)

    def clear(self) -> None:
        """Retire the journal: every guarded mutation was undone or
        cleanly torn down, so the log has nothing left to say."""
        self.buffer.clear()
        self._last = None
        if self.path is not None and os.path.exists(self.path):
            os.unlink(self.path)

    def _rewrite(self) -> None:
        if self.path is not None:
            with open(self.path, "wb") as fh:
                fh.write(bytes(self.buffer))
                fh.flush()
                os.fsync(fh.fileno())

    @property
    def record_count(self) -> int:
        if len(self.buffer) <= len(HEADER):
            return 0
        return (len(self.buffer) - len(HEADER)) // RECORD_SIZE
