"""Protocol registry."""

from .base import ProtocolSpec, SessionParams, max_t  # noqa: F401
from .crypto_async import ASYNC_PROTOCOLS
from .crypto_sync import SYNC_PROTOCOLS
from .errorfree import EF_PROTOCOLS

PROTOCOLS: dict[str, ProtocolSpec] = {
    p.name: p for p in SYNC_PROTOCOLS + ASYNC_PROTOCOLS + EF_PROTOCOLS
}

__all__ = ["PROTOCOLS", "ProtocolSpec", "SessionParams", "max_t"]
