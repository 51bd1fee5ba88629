"""Backup policy evaluation and the persistent message log.

Six configurable backup options carry fixed priorities (1,2 -> 1;
3,4 -> 2; 5,6 -> 3).  Among the options an incoming message triggers,
the smallest (priority, option number) pair wins and the rest are
discarded.  Authorized messages land in an append-only log of
length-prefixed, CRC-checked records so a crash mid-write costs at most
the torn tail, which the next append cuts off.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from .forwarding import PriorityQueueBank
from .messages import (
    EmergencyMessage,
    InvariantViolation,
    MalformedDocument,
    decode_message,
    encode_message,
)

STORE_LIMIT_BYTES = 64 * 1024 * 1024

# option number -> fixed option priority (1 beats 2 beats 3)
OPTION_PRIORITY = {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3}

_RECORD_HEADER = struct.Struct(">II")  # payload length, CRC-32 of payload


class StorageFull(RuntimeError):
    """The backup log reached its size bound; the write was refused."""


@dataclass(frozen=True)
class BackupOption:
    """One enabled row of the backup policy table."""

    option_number: int
    threshold: Optional[int] = None

    def __post_init__(self) -> None:
        n, t = self.option_number, self.threshold
        if n not in OPTION_PRIORITY:
            raise InvariantViolation(f"unknown backup option: {n}")
        if n in (1, 2):
            if t is not None:
                raise InvariantViolation(f"option {n} takes no threshold")
        elif t is None:
            raise InvariantViolation(f"option {n} requires a threshold")
        elif n == 3 and not 0 < t <= 100:
            raise InvariantViolation(f"option 3 threshold out of range: {t}")
        elif n == 4 and not 0 <= t <= 4:
            raise InvariantViolation(f"option 4 threshold out of range: {t}")
        elif n in (5, 6) and not 0 < t < 100:
            raise InvariantViolation(f"option {n} threshold out of range: {t}")

    @property
    def option_priority(self) -> int:
        return OPTION_PRIORITY[self.option_number]


@dataclass(frozen=True)
class NodeCondition:
    battery_percent: int
    load_percent: int

    def __post_init__(self) -> None:
        for label, value in (("battery", self.battery_percent),
                             ("load", self.load_percent)):
            if not 0 <= value <= 100:
                raise InvariantViolation(f"{label} percent out of range: {value}")


class BackupAction(Enum):
    BACKUP_ON_RECEIVE = "backup_on_receive"
    BACKUP_AFTER_FORWARD = "backup_after_forward"
    NO_BACKUP = "no_backup"


@dataclass(frozen=True)
class BackupDecision:
    action: BackupAction
    winning_option: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.winning_option is None) != (self.action is BackupAction.NO_BACKUP):
            raise InvariantViolation("winning_option present iff a backup happens")


_NO_BACKUP = BackupDecision(BackupAction.NO_BACKUP)

# A policy compiled by compile_policy: (message, battery percent, load
# percent) -> decision.
Policy = Callable[[EmergencyMessage, int, int], BackupDecision]


def _trigger(option: BackupOption
             ) -> Optional[Callable[[EmergencyMessage, int, int], bool]]:
    """Whether option fires for (msg, battery, load); None if it always does."""
    n, t = option.option_number, option.threshold
    if n in (1, 2):
        return None
    if n == 3:
        return lambda msg, battery, load: battery < t
    if n == 4:
        # Priority 0 is the most important; "higher than t" means <= t.
        return lambda msg, battery, load: msg.priority <= t
    if n == 5:
        return lambda msg, battery, load: load > t
    return lambda msg, battery, load: msg.sender_load > t


def reads_node_condition(enabled: Iterable[BackupOption]) -> bool:
    """Whether a policy's decision depends on battery or load (options 3, 5)."""
    return any(opt.option_number in (3, 5) for opt in enabled)


def compile_policy(enabled: Iterable[BackupOption]) -> Policy:
    """The policy as one decision function, built once.

    The options are ranked by (priority, number) here, so a decision
    tries them in order and the first that fires wins; each outcome is
    built once and shared.  An always-on option ends the ranking.
    """
    rules = []
    for opt in sorted(enabled,
                      key=lambda o: (o.option_priority, o.option_number)):
        n = opt.option_number
        action = (BackupAction.BACKUP_AFTER_FORWARD if n == 2
                  else BackupAction.BACKUP_ON_RECEIVE)
        trigger = _trigger(opt)
        rules.append((trigger, BackupDecision(action, n)))
        if trigger is None:
            break

    def decide(msg: EmergencyMessage, battery_percent: int,
               load_percent: int) -> BackupDecision:
        for trigger, decision in rules:
            if trigger is None or trigger(msg, battery_percent, load_percent):
                return decision
        return _NO_BACKUP

    return decide


def evaluate_policy(enabled: set[BackupOption], msg: EmergencyMessage,
                    cond: NodeCondition) -> BackupDecision:
    """Pick the triggered option with the best (priority, number) pair."""
    return compile_policy(enabled)(msg, cond.battery_percent,
                                   cond.load_percent)


def _read_log(data: bytes) -> tuple[list[EmergencyMessage], int]:
    """The messages of a log's valid prefix, and that prefix's length."""
    messages: list[EmergencyMessage] = []
    offset = 0
    while offset + _RECORD_HEADER.size <= len(data):
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        start = offset + _RECORD_HEADER.size
        payload = data[start:start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        try:
            messages.append(decode_message(payload))
        except (MalformedDocument, InvariantViolation):
            break
        offset = start + length
    return messages, offset


class BackupStore:
    """Append-only message log, replayable after restart.

    Records are (length, CRC-32, encoded message).  Replay stops at the
    first record that fails framing or checksum, or whose document does
    not decode to a valid message, keeping the valid prefix; the
    discarded byte count is reported for diagnostics, and the first
    append cuts those bytes off the file.  Opening never writes.

    The store keeps ids, a record count and the size, not the records:
    only a log file is read back, by the parser that replays it.
    """

    def __init__(self, path: Union[str, Path, None] = None,
                 limit_bytes: int = STORE_LIMIT_BYTES):
        self._path = Path(path) if path is not None else None
        self.limit_bytes = limit_bytes
        self._ids: set[int] = set()
        self._count = 0
        self._size = 0
        # Bytes after the valid prefix at open; 0 once an append cut them.
        self.corrupt_tail_bytes = 0
        if self._path is not None and self._path.exists():
            data = self._path.read_bytes()
            messages, self._size = _read_log(data)
            self._ids = {msg.msg_id for msg in messages}
            self._count = len(messages)
            self.corrupt_tail_bytes = len(data) - self._size

    def persist(self, msg: EmergencyMessage,
                payload: Optional[bytes] = None) -> bool:
        """Append one message; False if its id is already in the log.

        `payload` is msg's encoding when the caller already holds it.
        """
        if msg.msg_id in self._ids:
            return False
        if payload is None:
            payload = encode_message(msg)
        size = _RECORD_HEADER.size + len(payload)
        if self._size + size > self.limit_bytes:
            raise StorageFull(f"backup log at {self._size} bytes cannot take {size} more")
        if self._path is not None:
            # Only a file is ever replayed, so only it needs the framing.
            with self._path.open("ab") as fh:
                if self.corrupt_tail_bytes:
                    fh.truncate(self._size)
                    self.corrupt_tail_bytes = 0
                fh.write(_RECORD_HEADER.pack(len(payload), zlib.crc32(payload))
                         + payload)
        self._ids.add(msg.msg_id)
        self._count += 1
        self._size += size
        return True

    def __len__(self) -> int:
        return self._count

    @property
    def size_bytes(self) -> int:
        return self._size

    def __contains__(self, msg_id: int) -> bool:
        return msg_id in self._ids

    def messages(self) -> list[EmergencyMessage]:
        """The log file's messages, freshly decoded, in persisted order."""
        if self._path is None:
            raise ValueError("a backup store without a log file keeps no records")
        if not self._path.exists():
            return []
        return _read_log(self._path.read_bytes())[0]

    def restore_into(self, bank: PriorityQueueBank) -> int:
        """Re-admit persisted messages the bank has not delivered yet."""
        restored = 0
        for msg in self.messages():
            if msg.msg_id in bank.delivered:
                continue
            bank.inject(msg)
            restored += 1
        return restored

    def to_json(self) -> list[dict]:
        return [
            {
                "msg_id": m.msg_id,
                "src": str(m.src),
                "dst": str(m.dst),
                "priority": m.priority,
                "sender_load": m.sender_load,
                "hop_count": m.hop_count,
                "created_at": m.created_at,
                "payload_bytes": len(m.payload),
            }
            for m in self.messages()
        ]
