from types import SimpleNamespace

import pytest

from bbext import blocks
from bbext.accumulator import Witness
from bbext.adversary import CorruptShareSender, Equivocator

PAYLOADS = [b"", b"\x00", b"\xff\xa5\x5a", bytes(range(256)), bytes(range(255, -1, -3)) * 40]
PAYLOAD_IDS = ["empty", "zero", "mixed", "every-byte", "long"]


class RecordingCtx:
    def __init__(self, n):
        self.params = SimpleNamespace(n=n)
        self.sent = []

    def send(self, dst, kind, payload, bits, step=None, instance=None, oracle=None):
        self.sent.append((dst, kind, payload))


def sends_through(script, kind, payload, dst=2):
    """What the corrupt party actually sends when its honest code sends payload."""
    ctx = RecordingCtx(n=4)

    def honest(proxy):
        proxy.send(dst, kind, payload, bits=0)

    script.make_party(1, honest, env=None)(ctx)
    [(_, sent_kind, sent)] = ctx.sent
    assert sent_kind == kind
    return sent


@pytest.mark.parametrize("payload", PAYLOADS, ids=PAYLOAD_IDS)
def test_equivocator_flips_every_byte(payload):
    assert sends_through(Equivocator(), "payload", payload) == bytes(b ^ 0xFF for b in payload)
    assert sends_through(Equivocator(), "payload", payload, dst=3) == payload


@pytest.mark.parametrize("payload", PAYLOADS, ids=PAYLOAD_IDS)
def test_corrupt_share_sender_flips_every_byte(payload):
    pkg = blocks.SharePackage(indexed_share=blocks.IndexedShare(index=1, share=payload),
                              witness=Witness(b"w", 8))
    sent = sends_through(CorruptShareSender(), "share_pkg", pkg)
    assert sent.indexed_share == blocks.IndexedShare(1, bytes(b ^ 0xA5 for b in payload))
    assert sent.witness == pkg.witness
