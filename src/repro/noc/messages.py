"""Protocol message vocabulary.

Message *kinds* are tracked per run so tests can assert the paper's
message-count arguments directly — most importantly Section 2.1:
communicating a new value costs five messages under invalidation
({write, invalidation, acknowledgment, load, data}) but only three under
callback ({callback, write, data} or {write, callback, data}).

Sizes: control messages are 8 bytes; data-bearing messages add their
payload (a 64-byte line for cache fills, an 8-byte word for through-ops
and callback wakeups).
"""

from __future__ import annotations

import enum


class MsgKind(enum.Enum):
    # Requests from L1/core to LLC/directory
    GETS = "GetS"              # read miss (MESI) / line fetch (VIPS)
    GETX = "GetX"              # write miss / upgrade (MESI)
    PUTM = "PutM"              # dirty writeback (MESI eviction)
    LOAD_THROUGH = "LdThru"    # racy load, bypasses L1 (VIPS/callback)
    LOAD_CB = "LdCB"           # callback read
    STORE_THROUGH = "StThru"   # racy write-through (st_cbA is this + wakeups)
    ATOMIC = "Atomic"          # RMW request to the LLC
    WRITE_THROUGH = "WtThru"   # self-downgrade word write-through (data)

    # Responses / directory-initiated
    DATA = "Data"              # data response carrying a line
    DATA_WORD = "DataW"        # data response carrying a word
    ACK = "Ack"                # write-through / store ack, inv-ack
    INV = "Inv"                # explicit invalidation (MESI only)
    FWD = "Fwd"                # directory forward to owner (MESI)
    WAKEUP = "Wakeup"          # callback satisfied: word value to a waiter


def message_bytes(kind: MsgKind, line_bytes: int, word_bytes: int,
                  header_bytes: int) -> int:
    """Wire size of one message of ``kind``."""
    if kind is MsgKind.DATA:
        return header_bytes + line_bytes
    if kind is MsgKind.PUTM:
        return header_bytes + line_bytes
    if kind in (MsgKind.DATA_WORD, MsgKind.WAKEUP, MsgKind.STORE_THROUGH,
                MsgKind.WRITE_THROUGH, MsgKind.ATOMIC):
        return header_bytes + word_bytes
    return header_bytes
