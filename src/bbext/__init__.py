"""Extension protocols for Byzantine broadcast and agreement on long messages.

Library layout:

- ``gf``, ``rs``: GF(2^16) arithmetic and the striped Reed-Solomon codec.
- ``accumulator``, ``multisig``: set commitments with membership witnesses
  and aggregate signatures, with nominal-size accounting.
- ``blocks``: the encode / distribute / reconstruct dissemination blocks.
- ``star``: maximum matching and the star-extraction procedure used by the
  error-free protocols.
- ``simnet``: deterministic round and event schedulers, party contexts
  with mail lists opened at start from ``wire``'s key rule, and honest-bit
  metering.
- ``oracles``: short-message broadcast/agreement primitives (ideal and
  concrete) plus the common-coin source.
- ``adversary``: scripted Byzantine adversaries and the standard battery.
- ``protocols``: the seven long-message protocols as party coroutines, the
  four authenticated ones sharing one share-dissemination path.
- ``runner``: one-call session execution.
- ``checks``: the property suites behind the acceptance tests and the CLI.
- ``cli``: experiment sweeps, message traces and property-suite checks.
"""

from .protocols import PROTOCOLS, SessionParams
from .runner import RunResult, run
from .simnet import BOT, RunMetrics

__all__ = ["BOT", "PROTOCOLS", "RunMetrics", "RunResult", "SessionParams", "run"]
