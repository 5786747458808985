"""Python's shortest round-trip float text (``float.__repr__``) for many
float64 values at once.

:func:`float_reprs` equals ``list(map(float.__repr__, values.tolist()))``.
Large inputs go through a numpy form of Ryu's d2s (Adams, "Ryu: fast
float-to-string conversion", PLDI 2018), which finds the same shortest,
correctly rounded digits as ``repr`` with fixed-width integer arithmetic:

- **Digits.** Ryu over uint64 arrays.  Its power-of-5 tables are built
  exactly from Python ints, and its 64 x 128-bit products from 32-bit
  limbs.  In place of its digit-removal loop, each row's count of digits
  to remove is found first, by whole-array divisions by 10, and the last
  digit removed and the exactness of the tail are then read off by one
  division and one remainder by that power of 10.
- **Layout.** ``repr``'s: positional when -4 < decimal point <= 16, with
  ``.0`` on integral values, otherwise ``d.ddde+XX``.  Each row's text is
  gathered from its digits and a few literal characters by one template
  per (sign, digit count, layout) into a UCS4 character matrix, read out
  as ``U24`` strings.
- Zeros, infinities and NaN, and inputs below ``KERNEL_MIN_VALUES``, go
  through ``repr`` itself.

Every uint64 step has uint64 operands (numpy scalars, not Python ints), so
numpy's integer promotion gives the same dtypes before and after NEP 50.
"""

from __future__ import annotations

import functools

import numpy as np

# Inputs shorter than this are formatted by repr: the kernel costs about
# 0.4 ms a call whatever its size, and more where its temporaries fault in
# fresh pages, which in a short-lived process outweighs its gain.
KERNEL_MIN_VALUES = 8192
# The kernel formats at most this many values at a time.  Its temporaries,
# a few dozen arrays of 8 bytes a value, then stay at a few MB; on a 2-core
# VM, fresh pages for 16,384-value slices cost more than they saved.
SLICE_VALUES = 8192

_U = np.uint64
_ZERO, _ONE, _TWO, _FIVE, _TEN = _U(0), _U(1), _U(2), _U(5), _U(10)
_S32, _S52, _S63, _S64 = _U(32), _U(52), _U(63), _U(64)
_M32 = _U(0xFFFFFFFF)
_MANTISSA = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_EXPONENT = _U(0x7FF)
_ONE_BITS = _U(0x3FF0000000000000)  # 1.0

# Bit count of Ryu's power-of-5 multipliers; rows of its table of inverse
# powers (for binary exponents >= 0), which the table of powers follows.
_POW5_BITS = 125
_INV_ROWS = 342
_POW_ROWS = 326

# Source characters of a row: 17 digits (left-aligned, padded with "0") and
# 3 exponent digits, then the literals.
_EXP_COL = 17
_LITERALS = ".-e+\0" + "0"  # split, as "\00" would be one character
_DOT, _MINUS, _E, _PLUS, _NUL, _ZERO_CHAR = range(20, 26)
_SOURCE_COLS = 26
_LITERAL_CODES = np.array([ord(c) for c in _LITERALS], dtype=np.uint32)
_TEN32, _CHAR0 = np.uint32(10), np.uint32(ord("0"))
_WIDTH = 24  # the longest repr: "-1.2345678901234567e-308"
# Layouts: 0..19 positional with decimal point -3..16, then the exponent
# form with a negative or positive exponent of 2 or 3 digits.
_LAYOUTS = 24


def float_reprs(values) -> list[str]:
    """``repr`` of each float64 in ``values`` (flattened), in order."""
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if len(values) < KERNEL_MIN_VALUES:
        return list(map(repr, values.tolist()))
    slices = -(-len(values) // SLICE_VALUES)
    bounds = [len(values) * k // slices for k in range(slices + 1)]
    texts: list[str] = []
    for first, end in zip(bounds, bounds[1:]):
        texts += _reprs(values[first:end])
    return texts


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Ryu's multipliers as (lo, hi) uint64 words: row q < 342 is
    ``2**(bits(5**q) - 1 + 125) // 5**q + 1``, row 342 + i is ``5**i``
    scaled to 125 bits.  Then 5**q for q <= 21, 10**k for k <= 19 and the
    layout templates.  All read-only."""
    rows = []
    for q in range(_INV_ROWS):
        p = 5 ** q
        rows.append((1 << (p.bit_length() - 1 + _POW5_BITS)) // p + 1)
    for i in range(_POW_ROWS):
        p = 5 ** i
        shift = p.bit_length() - _POW5_BITS
        rows.append(p >> shift if shift >= 0 else p << -shift)
    tables = (np.array([r & ((1 << 64) - 1) for r in rows], dtype=np.uint64),
              np.array([r >> 64 for r in rows], dtype=np.uint64),
              np.array([5 ** q for q in range(22)], dtype=np.uint64),
              np.array([10 ** k for k in range(20)], dtype=np.uint64),
              _templates())
    for table in tables:
        table.flags.writeable = False
    return tables


def _templates() -> np.ndarray:
    """Source column of each output character, one row per (sign, digit
    count, layout) key; ``_NUL`` pads each row to ``_WIDTH``."""
    table = np.full((2, 17, _LAYOUTS, _WIDTH), _NUL, dtype=np.intp)
    for neg in range(2):
        for nd in range(1, 18):
            digits = list(range(nd))
            for layout in range(_LAYOUTS):
                cols = [_MINUS] if neg else []
                point = layout - 3
                if layout >= 20:
                    positive, three = divmod(layout - 20, 2)
                    cols += [0] + ([_DOT] + digits[1:] if nd > 1 else [])
                    cols += [_E, _PLUS if positive else _MINUS]
                    cols += list(range(_EXP_COL + 1 - three, _EXP_COL + 3))
                elif point <= 0:
                    cols += [_ZERO_CHAR, _DOT] + [_ZERO_CHAR] * -point + digits
                else:
                    # digits at nd and past it are the "0" padding
                    cols += list(range(point)) + [_DOT] + list(range(point, max(nd, point + 1)))
                table[neg, nd - 1, layout, :len(cols)] = cols
    return table.reshape(-1, _WIDTH)


def _reprs(values: np.ndarray) -> list[str]:
    """:func:`float_reprs` of one slice, by the kernel."""
    pow10, templates = _tables()[3:]
    bits = values.view(np.uint64)
    special = ~np.isfinite(values) | (values == 0)
    # 1.0 stands in for the special values, which repr formats below
    digits, exp10 = _digits(np.where(special, _ONE_BITS, bits))
    count = np.searchsorted(pow10[:18], digits, side="right")
    point = exp10 + count
    exponent = np.abs(point - 1)
    layout = np.where((point > -4) & (point <= 16), point + 3,
                      20 + 2 * (point > 1) + (exponent >= 100))
    key = ((bits >> _S63).astype(np.intp) * 17 + count - 1) * _LAYOUTS + layout

    # source characters, one row per column, so that each is written whole
    n = len(values)
    source = np.empty((_SOURCE_COLS, n), dtype=np.uint32)
    left = digits * pow10[17 - count]
    top = left // pow10[16]
    source[0] = top
    _put_digits(source[1:9], left // pow10[8] - top * pow10[8])
    _put_digits(source[9:17], left - (left // pow10[8]) * pow10[8])
    _put_digits(source[_EXP_COL:_DOT], exponent)
    source[:_DOT] += _CHAR0
    source[_DOT:] = _LITERAL_CODES[:, None]
    # intp indices: take converts any other dtype first, at more than the
    # cost of the gather
    index = (templates * n).take(key, axis=0)
    index += np.arange(n)[:, None]
    texts = source.ravel().take(index).view(f"U{_WIDTH}").ravel().tolist()
    for i in np.flatnonzero(special).tolist():
        texts[i] = repr(float(values[i]))
    return texts


def _put_digits(rows: np.ndarray, part: np.ndarray) -> None:
    """Write the last ``len(rows)`` decimal digits of ``part`` into
    ``rows``, one digit a row, as values 0..9."""
    part = part.astype(np.uint32)
    for row in rows[::-1]:
        rest = part // _TEN32
        np.subtract(part, rest * _TEN32, out=row)
        part = rest


def _digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's shortest digits of finite nonzero doubles, given as bit
    patterns: (digits as an integer, decimal exponent of the last digit)."""
    pow10 = _tables()[3]
    vr, vp, vm, vr_tz, vm_tz, e10 = _bounds(bits)
    # the digits to remove: while vp and vm differ above the last one
    removed = _removable(vp, vm)
    # then, where vm is exact and the digits removed from it were zeros, the
    # rest of its trailing zeros: 10**k divides vm where (vm - 1, vm] holds
    # a multiple of it.  vm_tz stays set where they were zeros.
    # Where zeros == removed, vm_tz cannot change the result.  Let d be the
    # exact vr - vm, so vr = vm + floor(d).  A power-of-two mantissa has an
    # exact vm only at q = 0, (2**54 - 1) 2**e2, which ends in no zero; so
    # removed = 0 there, and d = 2**e2 >= 1 keeps vr > vm.  Any other
    # mantissa has vp = vm + floor(2 d), and d >= 2 (d = 2**(e2 + 1) / 10**q
    # with 10**q <= 2**e2 where e2 >= 0, d >= 10 where e2 < 0).  There
    # removed >= 1 needs vp >= vm + 10**removed, so vr - vm >= 10**removed / 2:
    # either vr // 10**removed > vm // 10**removed, or the last digit removed
    # is 5 or more.
    rows = np.flatnonzero(vm_tz)
    zeros = _removable(vm[rows], vm[rows] - _ONE)
    vm_tz[rows] = zeros >= removed[rows]
    removed[rows] = np.maximum(removed[rows], zeros)
    # last, the last digit removed from vr; vr_tz stays set where those
    # removed before it were zeros
    scale = pow10[np.maximum(removed - 1, 0)]
    head = vr // scale
    vr_tz &= head * scale == vr
    some = removed > 0
    vr = np.where(some, head // _TEN, vr)
    last = np.where(some, head - vr * _TEN, _ZERO)
    vm = vm // pow10[removed]
    # an exact ...50...0 tail rounds to even
    last[vr_tz & (last == _FIVE) & ((vr & _ONE) == _ZERO)] = 4
    # vr is below the interval where it is vm and vm is not in it; vm_tz is
    # only ever set where the bounds are in the interval
    up = ((vr == vm) & ~vm_tz) | (last >= _FIVE)
    return vr + up, e10 + removed


def _removable(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The most digits k, per row, whose removal from both ``hi`` and ``lo``
    leaves ``hi // 10**k > lo // 10**k``.  That holds while (lo, hi] holds
    a multiple of 10**k, so once it fails it fails for every greater k: k
    is the count of the k >= 1 where it holds."""
    removed = np.zeros(len(hi), dtype=np.intp)
    hi, lo = hi // _TEN, lo // _TEN
    more = hi > lo
    while more.any():
        removed += more
        hi //= _TEN
        lo //= _TEN
        np.greater(hi, lo, out=more)
    return removed


def _bounds(bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ryu's decimal interval of each double before any digit is removed:
    vr, vp, vm; whether vr and vm are exact with trailing zeros; and the
    decimal exponent."""
    lo_table, hi_table, pow5 = _tables()[:3]
    biased = ((bits >> _S52) & _EXPONENT).astype(np.int64)
    mantissa = bits & _MANTISSA
    normal = biased != 0
    e2 = np.where(normal, biased, 1) - (1023 + 52 + 2)
    m2 = np.where(normal, mantissa | _HIDDEN, mantissa)
    accept = (m2 & _ONE) == _ZERO
    mm_shift = (mantissa != _ZERO) | (biased <= 1)
    mv = m2 << _TWO

    # q, the table row and the shift of the products, for binary exponents
    # e2 >= 0 and e2 < 0
    pos = e2 >= 0
    ae = np.abs(e2)
    q = np.where(pos, ((ae * 78913) >> 18) - (ae > 3), ((ae * 732923) >> 20) - (ae > 1))
    i5 = ae - q
    shift = np.where(pos, q - e2 + 61 + ((q * 1217359) >> 19),
                     q + 60 - ((i5 * 1217359) >> 19)).astype(np.uint64)
    row = np.where(pos, q, _INV_ROWS + i5)
    vr, vp, vm = _mul_shift_all(m2, lo_table[row], hi_table[row], shift, mm_shift)

    # whether the exact vr and vm end in zeros that digit removal drops; and
    # vp pulled inside an open upper bound
    vr_tz = np.zeros(len(bits), dtype=bool)
    vm_tz = np.zeros(len(bits), dtype=bool)
    rows = np.flatnonzero(pos & (q <= 21))
    if rows.size:
        m, p5, ok = mv[rows], pow5[q[rows]], accept[rows]
        by5 = m % _FIVE == _ZERO
        vr_tz[rows] = by5 & (m % p5 == _ZERO)
        vm_tz[rows] = ~by5 & ok & ((m - _ONE - mm_shift[rows]) % p5 == _ZERO)
        vp[rows] -= ~by5 & ~ok & ((m + _TWO) % p5 == _ZERO)
    rows = np.flatnonzero(~pos & (q <= 1))
    if rows.size:
        vr_tz[rows] = True
        vm_tz[rows] = accept[rows] & mm_shift[rows]
        vp[rows] -= ~accept[rows]
    rows = np.flatnonzero(~pos & (q > 1) & (q < 63))
    if rows.size:
        mask = (_ONE << q[rows].astype(np.uint64)) - _ONE
        vr_tz[rows] = (mv[rows] & mask) == _ZERO
    return vr, vp, vm, vr_tz, vm_tz, np.where(pos, q, q + e2)


def _mul_shift_all(m2, lo, hi, shift, mm_shift):
    """Ryu's ``mulShiftAll64``: vr, vp and vm, the products of 4 m2, 4 m2 + 2
    and 4 m2 - 1 - mm_shift with the multiplier ``hi * 2**64 + lo``, shifted
    right by ``64 + shift`` bits, all from one 192-bit product of 2 m2."""
    m = m2 << _ONE
    a0, a1 = m & _M32, m >> _S32
    w0, x1 = _umul128(a0, a1, lo)
    y0, w2 = _umul128(a0, a1, hi)
    w1 = x1 + y0
    w2 += w1 < x1
    s = shift - _ONE
    vr = _shift_right(w1, w2, s)
    # plus the multiplier: 4 m2 + 2
    p0 = w0 + lo
    p1 = w1 + hi + (p0 < w0)
    vp = _shift_right(p1, w2 + (p1 < w1), s)
    # less the multiplier: 4 m2 - 2 for mm_shift; else twice the product
    # less the multiplier, 4 m2 - 1, shifted one bit further
    d0 = np.where(mm_shift, w0, w0 << _ONE)
    d1 = np.where(mm_shift, w1, (w1 << _ONE) | (w0 >> _S63))
    d2 = np.where(mm_shift, w2, (w2 << _ONE) | (w1 >> _S63))
    low = d0 - lo
    mid = d1 - hi - (low > d0)
    vm = _shift_right(mid, d2 - (mid > d1), s + ~mm_shift)
    return vr, vp, vm


def _umul128(a0, a1, b):
    """(low, high) words of the 128-bit products ``a * b``, with ``a``
    given as its 32-bit limbs ``a0`` and ``a1``."""
    b0, b1 = b & _M32, b >> _S32
    low, cross, high = a0 * b0, a0 * b1, a1 * b1
    mid = (low >> _S32) + (cross & _M32)
    high += cross >> _S32
    cross = a1 * b0
    mid += cross & _M32
    high += (cross >> _S32) + (mid >> _S32)
    return (mid << _S32) | (low & _M32), high


def _shift_right(low, high, shift):
    """``(high * 2**64 + low) >> shift`` as uint64, for ``0 < shift < 64``."""
    return (high << (_S64 - shift)) | (low >> shift)
