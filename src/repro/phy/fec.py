"""Forward error correction schemes and the adaptive-FEC primitive.

PLP number four in the paper is *adaptive forward error correction*: the
physical layer can trade latency and overhead against resilience, and the
Closed Ring Control picks the cheapest scheme that still meets the target
post-FEC error rate given the lane's measured raw BER.

The schemes modelled here follow the IEEE 802.3 family used by 25G/100G
Ethernet (no FEC, BASE-R "FireCode", RS(528,514) a.k.a. KR4, RS(544,514)
a.k.a. KP4) plus a heavier LDPC-class code representing the long-reach /
high-gain end of the design space.  Latency figures are the commonly quoted
store-and-correct block latencies; exact nanosecond values differ between
implementations but the *ordering* (stronger code = more latency and more
overhead) is what the control loop exploits, and that ordering is faithful.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.sim.units import nanoseconds


@dataclass(frozen=True)
class FecScheme:
    """One forward-error-correction configuration.

    Attributes
    ----------
    name:
        Identifier used in traces and reports.
    overhead_fraction:
        Fraction of the raw line rate consumed by parity (0 for no FEC).
        Effective throughput is ``raw_rate * (1 - overhead_fraction)``.
    latency:
        Added encode+decode latency in seconds (block codes must buffer a
        whole block before correcting it).
    symbol_size_bits:
        Symbol size of the code (10 for RS(528,514) over 10-bit symbols).
    block_symbols:
        Total symbols per codeword.
    correctable_symbols:
        Maximum number of symbol errors the code corrects per codeword.
    power_watts:
        Additional per-lane power drawn by the encoder/decoder logic.
    """

    name: str
    overhead_fraction: float
    latency: float
    symbol_size_bits: int
    block_symbols: int
    correctable_symbols: int
    power_watts: float

    def __post_init__(self) -> None:
        if not 0 <= self.overhead_fraction < 1:
            raise ValueError("overhead_fraction must be in [0, 1)")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.symbol_size_bits <= 0:
            raise ValueError("symbol_size_bits must be positive")
        if self.block_symbols <= 0:
            raise ValueError("block_symbols must be positive")
        if self.correctable_symbols < 0:
            raise ValueError("correctable_symbols must be >= 0")
        if self.power_watts < 0:
            raise ValueError("power_watts must be >= 0")

    def effective_rate(self, raw_rate_bps: float) -> float:
        """Throughput left after parity overhead."""
        if raw_rate_bps < 0:
            raise ValueError("raw_rate_bps must be >= 0")
        return raw_rate_bps * (1.0 - self.overhead_fraction)

    def post_fec_ber(self, raw_ber: float) -> float:
        """Residual bit error rate after correction (see :func:`post_fec_ber`)."""
        return post_fec_ber(raw_ber, self)

    def meets_target(self, raw_ber: float, target_ber: float) -> bool:
        """Whether this scheme reduces *raw_ber* to at most *target_ber*."""
        return self.post_fec_ber(raw_ber) <= target_ber


def _symbol_error_rate(raw_ber: float, symbol_size_bits: int) -> float:
    """Probability that a symbol of ``symbol_size_bits`` contains >= 1 bit error."""
    raw_ber = min(max(raw_ber, 0.0), 1.0)
    return 1.0 - (1.0 - raw_ber) ** symbol_size_bits


def post_fec_ber(raw_ber: float, scheme: FecScheme) -> float:
    """Residual BER after decoding with *scheme*.

    Model: symbol errors are independent with probability ``p_s``; a codeword
    fails when more than ``t`` of its ``n`` symbols are corrupted.  The
    residual BER is approximated by the codeword failure probability scaled
    by the fraction of bits a typical failure corrupts (taken as the first
    uncorrectable error pattern, ``(t+1)/n``).  This is the standard
    bounded-distance-decoding approximation and reproduces the familiar
    waterfall curves: RS(528,514) takes a raw 1e-5 channel to well below
    1e-12, RS(544,514) stretches that to ~2e-4 raw.

    A scheme with zero correctable symbols (no FEC) returns the raw BER
    unchanged.
    """
    if raw_ber < 0 or raw_ber > 1:
        raise ValueError(f"raw_ber must be in [0, 1], got {raw_ber!r}")
    if scheme.correctable_symbols == 0:
        return raw_ber
    if raw_ber == 0.0:
        return 0.0
    return _post_fec_ber_series(raw_ber, scheme)


@functools.lru_cache(maxsize=4096, typed=True)
def _post_fec_ber_series(raw_ber: float, scheme: FecScheme) -> float:
    """The lgamma tail series of :func:`post_fec_ber`, memoised.

    A pure function of ``(raw_ber, scheme)`` (``FecScheme`` is frozen, so
    hashable); the control loop prices the same links over and over with
    unchanged inputs.  ``typed`` keeps ``1`` and ``1.0`` apart, since the
    series can return *raw_ber* itself.
    """
    n = scheme.block_symbols
    t = scheme.correctable_symbols
    p_symbol = _symbol_error_rate(raw_ber, scheme.symbol_size_bits)
    if p_symbol >= 1.0:
        return raw_ber

    # P(codeword uncorrectable) = P(Binomial(n, p_symbol) > t).
    # Sum the complementary tail.  In the operating regime (mean symbol
    # errors well below t) the first terms dominate and truncating the sum
    # is safe; when the channel is so bad that the mean exceeds t, the full
    # sum is needed (and is effectively 1).
    log_p = math.log(p_symbol)
    log_q = math.log1p(-p_symbol)
    tail = 0.0
    mean_symbol_errors = n * p_symbol
    upper = n if mean_symbol_errors > t else min(n, t + 200)
    for k in range(t + 1, upper + 1):
        log_term = (
            math.lgamma(n + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * log_p
            + (n - k) * log_q
        )
        tail += math.exp(log_term)
    tail = min(tail, 1.0)
    corrupted_fraction = (t + 1) / n
    residual = tail * corrupted_fraction
    return min(residual, raw_ber)


#: No error correction at all: zero overhead, zero added latency.
FEC_NONE = FecScheme(
    name="none",
    overhead_fraction=0.0,
    latency=0.0,
    symbol_size_bits=1,
    block_symbols=1,
    correctable_symbols=0,
    power_watts=0.0,
)

#: BASE-R "FireCode" FEC (clause 74): light-weight, low latency, low gain.
FEC_BASE_R = FecScheme(
    name="base-r",
    overhead_fraction=0.0015,
    latency=nanoseconds(60),
    symbol_size_bits=1,
    block_symbols=2112,
    correctable_symbols=11,
    power_watts=0.05,
)

#: RS(528,514), clause 91 "KR4": the standard 100GBASE-KR4/CR4 FEC.
FEC_RS528 = FecScheme(
    name="rs-528",
    overhead_fraction=0.0265,
    latency=nanoseconds(100),
    symbol_size_bits=10,
    block_symbols=528,
    correctable_symbols=7,
    power_watts=0.12,
)

#: RS(544,514), clause 134 "KP4": stronger, used for PAM4 links.
FEC_RS544 = FecScheme(
    name="rs-544",
    overhead_fraction=0.0551,
    latency=nanoseconds(180),
    symbol_size_bits=10,
    block_symbols=544,
    correctable_symbols=15,
    power_watts=0.2,
)

#: A heavy LDPC-class code representing the long-reach / high-gain corner.
FEC_LDPC = FecScheme(
    name="ldpc",
    overhead_fraction=0.125,
    latency=nanoseconds(500),
    symbol_size_bits=8,
    block_symbols=2048,
    correctable_symbols=120,
    power_watts=0.6,
)

#: Schemes ordered from cheapest (latency/overhead) to strongest.
STANDARD_FEC_SCHEMES: List[FecScheme] = [
    FEC_NONE,
    FEC_BASE_R,
    FEC_RS528,
    FEC_RS544,
    FEC_LDPC,
]


class AdaptiveFecController:
    """Chooses the cheapest FEC scheme meeting a target residual BER.

    "Cheapest" is defined by added latency first and overhead second,
    matching the paper's emphasis on the latency of the critical path.  A
    hysteresis margin avoids oscillating between two schemes when the
    measured raw BER sits exactly at a threshold.
    """

    def __init__(
        self,
        target_ber: float = 1e-12,
        schemes: Optional[Sequence[FecScheme]] = None,
        hysteresis: float = 2.0,
    ) -> None:
        if target_ber <= 0 or target_ber >= 1:
            raise ValueError(f"target_ber must be in (0, 1), got {target_ber!r}")
        if hysteresis < 1.0:
            raise ValueError(f"hysteresis must be >= 1.0, got {hysteresis!r}")
        self.target_ber = target_ber
        self.hysteresis = hysteresis
        ordered = list(schemes) if schemes is not None else list(STANDARD_FEC_SCHEMES)
        self.schemes = sorted(ordered, key=lambda s: (s.latency, s.overhead_fraction))

    def select(self, raw_ber: float, current: Optional[FecScheme] = None) -> FecScheme:
        """Return the scheme to use for a lane with the given raw BER.

        If *current* already meets the target with the hysteresis margin,
        it is kept unless a strictly cheaper scheme also meets the margin --
        this is what prevents flapping when the BER estimate is noisy.
        """
        candidates = [s for s in self.schemes if s.meets_target(raw_ber, self.target_ber)]
        if not candidates:
            # Nothing meets the target: use the strongest scheme available.
            return max(self.schemes, key=lambda s: s.correctable_symbols / s.block_symbols)
        best = candidates[0]
        if current is not None and current.meets_target(
            raw_ber, self.target_ber / self.hysteresis
        ):
            # Current scheme still comfortably meets target; only switch if
            # the best candidate is strictly cheaper.
            if (best.latency, best.overhead_fraction) < (
                current.latency,
                current.overhead_fraction,
            ):
                return best
            return current
        return best

    def schemes_meeting_target(self, raw_ber: float) -> List[FecScheme]:
        """All schemes that would meet the target for *raw_ber*."""
        return [s for s in self.schemes if s.meets_target(raw_ber, self.target_ber)]


def scheme_by_name(name: str, schemes: Iterable[FecScheme] = STANDARD_FEC_SCHEMES) -> FecScheme:
    """Look up a scheme by its name (raises KeyError if unknown)."""
    for scheme in schemes:
        if scheme.name == name:
            return scheme
    raise KeyError(f"unknown FEC scheme {name!r}")
