"""Message envelopes: the control records exchanged through mailboxes.

An envelope is what travels out-of-band; payload bytes move separately
(inline for tiny messages, via a shared temp buffer for eager, via FIFO
fragments or a KNEM region for rendezvous).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "EAGER",
    "RTS_SM",
    "RTS_KNEM",
    "FIN",
    "RETX",
    "Envelope",
]

#: Envelope kinds.
EAGER = "eager"        # payload inline (tiny/object) or in a temp shm buffer
RTS_SM = "rts_sm"      # rendezvous through the per-pair FIFO
RTS_KNEM = "rts_knem"  # rendezvous through a KNEM region (cookie attached)
FIN = "fin"            # receiver -> sender completion notification
RETX = "retx"          # sender -> receiver retransmission after a NACKed FIN


@dataclass(slots=True)
class Envelope:
    """One point-to-point control record.

    ``cid``/``src``/``tag`` form the matching key (communicator context id,
    source rank within that communicator, tag).  ``seq`` is a per-sender
    sequence number used to route FINs back to the pending send.
    """

    kind: str
    cid: int
    src: int
    tag: Any
    nbytes: int
    seq: int = field(default_factory=itertools.count(1).__next__)
    #: inline object / bytes for EAGER, KNEM cookie for RTS_KNEM
    payload: Any = None
    #: shared temp buffer (eager) or FIFO segment (rts_sm)
    carrier: Any = None
    #: world rank of the sender (for reply routing)
    reply_to: int = -1
    #: region offset for RTS_KNEM partial sends
    region_offset: int = 0
    #: True when payload is a Python object rather than buffer bytes
    is_object: bool = False
    #: FIN only: the receiver could not complete the rendezvous (failed
    #: in-kernel copy) and asks the sender to retransmit copy-in/copy-out
    nack: bool = False
    #: happens-before token: pairs the sender's ``mpi.send`` trace record
    #: with the receiver's ``mpi.recv`` record (see repro.analysis)
    hb: int = -1

    def matches(self, source: int, tag: Any, any_source: int, any_tag: Any) -> bool:
        if source != any_source and source != self.src:
            return False
        if tag != any_tag and tag != self.tag:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Envelope {self.kind} cid={self.cid} src={self.src} "
            f"tag={self.tag!r} {self.nbytes}B seq={self.seq}>"
        )


_fin_seq = itertools.count(1)


def make_fin(cid: int, src: int, send_seq: int, nack: bool = False) -> Envelope:
    """Build the FIN acknowledging the send with sequence ``send_seq``."""
    return Envelope(kind=FIN, cid=cid, src=src, tag=None, nbytes=0,
                    payload=send_seq, nack=nack)
