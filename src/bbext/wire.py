"""The wire schema: the one gate for values from corrupt parties, and the
one table of message sizes.

A corrupt party may send any object, and a subclass of the expected type
can lie: its ``==``, hash, ``len`` or ``&`` may claim any honest value, or
raise. So honest code takes a corrupt party's value only in the shape it
reads, each part of exact type: an oracle value of width w is the ``int`` 0
or 1 for w = 1, else ``bytes`` (``value_ok``); a message of kind K has the
shape ``SCHEMA[K].parse`` admits, with oracle values of the declared width.

The engine applies the rule where a value enters: ``value_ok`` to corrupt
ideal submissions and to adversary-picked oracle outputs, ``parse`` once to
each envelope a corrupt party sends. A payload of another shape is
``REFUSED``, but a ``maj_val`` vote of another shape is the wrong vote
``b""``, and a ``ds`` record keeps its well-formed (slot, value, signature)
triples. Honest envelopes are not parsed, so honest receive code keeps only
semantic checks: ranges, lengths, witnesses and signatures.

``SCHEMA[K].size`` is the one size rule of kind K: the engine takes every
envelope's bits from it (a refused one's are 0), so neither a sender nor a
payload field names what a message costs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .accumulator import Witness, witness_nominal_bits
from .blocks import IndexedShare, SharePackage
from .multisig import MultiSig


REFUSED = type("Refused", (), {"__repr__": lambda self: "REFUSED"})()  # read by no party


def value_ok(value, width: int | None) -> bool:
    """Whether value is an oracle value of width bits (None: no instance)."""
    if width == 1:
        return type(value) is int and value in (0, 1)
    return width is not None and type(value) is bytes


def instances(oracles: dict) -> dict:
    """The declared instances, and each slot prefix of ``<prefix>/<j>`` names
    (a concrete chain runs all n slots under it) as its slots, with no one sender."""
    return {name.rpartition("/")[0]: decl._replace(sender=None)
            for name, decl in oracles.items() if "/" in name} | oracles


class Scale(NamedTuple):
    """The session constants message sizes read (see ``scale``)."""

    l: int  # bits of a message
    n: int  # bits of a party bitmap
    sig: int  # bits of a multisignature
    witness: int  # bits of an accumulator witness
    width: dict[str, int]  # oracle value width by instance (see ``instances``)
    relay: dict[str, int]  # bits of one chain relay by instance


def scale(params, ak, declared: dict) -> Scale:
    """Constants of a session (params, accumulator key, ``instances``); a chain
    relay carries value, signature and, with several senders, a slot id."""
    sig = MultiSig.nominal_bits(params.n, params.k)
    return Scale(params.l, params.n, sig, witness_nominal_bits(ak.scheme, ak.capacity, ak.k),
                 {name: d.width for name, d in declared.items()},
                 {name: d.width + sig + 16 * (d.sender is None) for name, d in declared.items()})


class Kind(NamedTuple):
    """One message kind: its parser and the size of one copy in bits."""

    parse: Callable  # (payload, width of its instance or None) -> payload | REFUSED
    size: Callable  # (parsed payload, instance, Scale) -> bits


def _sig(sig, width=None):
    """A MultiSig over a frozenset of ints with a bytes aggregate. Its two
    fields are counted first: ``tuple.__new__`` builds one of any length."""
    return sig if (type(sig) is MultiSig and len(sig) == 2 and type(sig.signers) is frozenset
                   and all(type(s) is int for s in sig.signers)
                   and type(sig.aggregate) is bytes) else REFUSED


def _package(pkg, width):
    if type(pkg) is not SharePackage:  # before any field is read
        return REFUSED
    share, wit = pkg.indexed_share, pkg.witness
    return pkg if (type(share) is IndexedShare and type(share.index) is int
                   and type(share.share) is bytes and type(wit) is Witness
                   and type(wit.data) is bytes) else REFUSED


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


_SYMBOL = Kind(_exact(bytes), lambda p, inst, s: 8 * len(p))
_BITMAP = Kind(_exact(int), lambda p, inst, s: s.n)
# an index, the share and its witness
_PACKAGE = Kind(_package, lambda p, inst, s: 16 + 8 * len(p.indexed_share.share) + s.witness)

SCHEMA = {
    "payload": Kind(_exact(bytes), lambda p, inst, s: s.l),
    "sym_self": _SYMBOL, "sym_priv": _SYMBOL,
    "maj_val": Kind(lambda p, width: p if type(p) is bytes else b"", _SYMBOL.size),
    "v_vec": _BITMAP, "e_vec": _BITMAP,
    "share_pkg": _PACKAGE, "share_fwd": _PACKAGE,
    "happy_cert": Kind(_sig, lambda p, inst, s: s.sig),
    "ok": Kind(_tuple(int, int), lambda p, inst, s: 32),  # (acknowledger, acknowledged)
    "aba": Kind(_tuple(str, int, int), lambda p, inst, s: 1 + 8),  # (tag, round, vote)
    "rb": Kind(_tuple(str, None), lambda p, inst, s: s.width[inst]),  # (tag, value)
    "ds": Kind(_chain, lambda p, inst, s: len(p) * s.relay[inst]),  # (triple, ...)
}


def parse(kind: str, payload, width: int | None):
    """What honest code may read of a corrupt party's payload of kind."""
    rule = SCHEMA.get(kind)
    return REFUSED if rule is None else rule.parse(payload, width)
