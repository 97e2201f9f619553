"""GDSII 8-byte real (excess-64, base-16) conversion.

GDSII predates IEEE-754: a REAL8 is one sign bit, a 7-bit excess-64 base-16
exponent, and a 56-bit mantissa interpreted as a fraction in [1/16, 1), so

    value = (-1)^sign * (mantissa / 2^56) * 16^(exponent - 64)

The UNITS record stores two REAL8 values, so every stream file round-trips
through this module.
"""

from __future__ import annotations

_MANTISSA_BITS = 56
_MANTISSA_SCALE = 1 << _MANTISSA_BITS
_EXPONENT_EXCESS = 64


def decode_real8(data: bytes) -> float:
    """Decode 8 bytes of excess-64 real data to a Python float."""
    if len(data) != 8:
        raise ValueError(f"REAL8 needs exactly 8 bytes, got {len(data)}")
    return real8_from_word(int.from_bytes(data, "big"))


def real8_from_word(word: int) -> float:
    """Decode a REAL8 already read as one big-endian 64-bit word."""
    sign = -1.0 if word >> 63 else 1.0
    exponent = ((word >> _MANTISSA_BITS) & 0x7F) - _EXPONENT_EXCESS
    mantissa = word & (_MANTISSA_SCALE - 1)
    if mantissa == 0:
        return 0.0
    return sign * (mantissa / _MANTISSA_SCALE) * (16.0 ** exponent)


def encode_real8(value: float) -> bytes:
    """Encode a Python float as 8 bytes of excess-64 real data.

    Values too large for the 7-bit exponent raise ``OverflowError``; values
    too small flush to zero (matching common GDSII writer behaviour).
    """
    if value == 0.0:
        return b"\x00" * 8
    sign = 0
    if value < 0:
        sign = 1
        value = -value

    # Normalize so that mantissa-fraction is in [1/16, 1).
    exponent = 0
    while value >= 1.0:
        value /= 16.0
        exponent += 1
    while value < 1.0 / 16.0:
        value *= 16.0
        exponent -= 1

    biased = exponent + _EXPONENT_EXCESS
    mantissa = int(round(value * _MANTISSA_SCALE))
    if mantissa >= _MANTISSA_SCALE:  # rounding overflowed the fraction
        mantissa //= 16
        biased += 1
    if not 0 <= biased <= 0x7F:
        if biased < 0:
            return b"\x00" * 8
        raise OverflowError(f"value {value} out of REAL8 exponent range")

    word = (sign << 63) | (biased << _MANTISSA_BITS) | mantissa
    return word.to_bytes(8, "big")
