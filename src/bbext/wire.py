"""The wire schema: the one gate for values from corrupt parties.

A corrupt party may send any object, and a subclass of the expected type
can lie: its ``==``, hash, ``len`` or ``&`` may claim any honest value, or
raise. So honest code takes a corrupt party's value only in the shape it
reads, each part of exact type: an oracle value of width w is the ``int`` 0
or 1 for w = 1, else ``bytes`` (``value_ok``); a message of kind K has the
shape ``SCHEMA[K]`` admits, with oracle values of the declared width
(``widths``).

The engine applies the rule where a value enters: ``value_ok`` to corrupt
ideal submissions and to adversary-picked oracle outputs, ``parse`` once to
each envelope a corrupt party sends. A payload of another shape is
``REFUSED``, but a ``maj_val`` vote of another shape is the wrong vote
``b""``, and a ``ds`` record keeps its well-formed (slot, value, signature)
triples. Honest envelopes are not parsed, so honest receive code keeps only
semantic checks: ranges, lengths, witnesses and signatures.
"""

from __future__ import annotations

from .accumulator import Witness
from .blocks import IndexedShare, SharePackage
from .multisig import MultiSig


REFUSED = type("Refused", (), {"__repr__": lambda self: "REFUSED"})()  # read by no party


def value_ok(value, width: int | None) -> bool:
    """Whether value is an oracle value of width bits (None: no instance)."""
    if width == 1:
        return type(value) is int and value in (0, 1)
    return width is not None and type(value) is bytes


def widths(oracles: dict) -> dict[str, int]:
    """Value width by instance name: each declared instance's, and each slot
    prefix's (``<prefix>/<j>``), under which a concrete chain runs n slots."""
    out = {name.rpartition("/")[0]: decl.width for name, decl in oracles.items() if "/" in name}
    out.update((name, decl.width) for name, decl in oracles.items())
    return out


def _sig(sig, width=None):
    """A MultiSig over a frozenset of ints with a bytes aggregate."""
    return sig if (type(sig) is MultiSig and type(sig.signers) is frozenset and all(
        type(s) is int for s in sig.signers) and type(sig.aggregate) is bytes) else REFUSED


def _package(pkg, width):
    if type(pkg) is not SharePackage:  # before any field is read
        return REFUSED
    share, wit = pkg.indexed_share, pkg.witness
    return pkg if (type(share) is IndexedShare and type(share.index) is int
                   and type(share.share) is bytes and type(wit) is Witness
                   and type(wit.data) is bytes and type(wit.nominal_bits) is int) else REFUSED


def _exact(ty):
    return lambda p, width: p if type(p) is ty else REFUSED


def _tuple(*shape):
    """A tuple of one member per exact type in shape; None marks an oracle value."""
    def check(p, width):
        ok = type(p) is tuple and len(p) == len(shape) and all(
            value_ok(x, width) if ty is None else type(x) is ty for x, ty in zip(p, shape))
        return p if ok else REFUSED
    return check


_TRIPLE = _tuple(int, None, MultiSig)  # (slot, value, signature)


def _chain(p, width):
    if type(p) is not tuple or width is None:
        return REFUSED
    kept = tuple(r for r in p if _TRIPLE(r, width) is r and _sig(r[2]) is r[2])
    return p if len(kept) == len(p) else kept


# kind -> parser(payload, width of the envelope's instance or None)
SCHEMA = {
    "payload": _exact(bytes), "sym_self": _exact(bytes), "sym_priv": _exact(bytes),
    "maj_val": lambda p, width: p if type(p) is bytes else b"",
    "v_vec": _exact(int), "e_vec": _exact(int),
    "share_pkg": _package, "share_fwd": _package,
    "happy_cert": _sig,
    "ok": _tuple(int, int),  # (acknowledger, acknowledged)
    "aba": _tuple(str, int, int),  # (tag, round, vote)
    "rb": _tuple(str, None),  # (tag, value)
    "ds": _chain,  # (triple, ...)
}


def parse(kind: str, payload, width: int | None):
    """What honest code may read of a corrupt party's payload of kind."""
    parser = SCHEMA.get(kind)
    return REFUSED if parser is None else parser(payload, width)
