"""Pure-Python AES-128 block cipher (FIPS-197).

Z-Wave's S0 and S2 transports are built entirely on AES-128 (AES-OFB for S0
payload encryption, AES-CMAC for S2 integrity, AES-CCM for S2 payload
protection, AES-CTR inside the key-derivation function).  No third-party
crypto package is assumed, so the block cipher is implemented here from the
standard; it is validated against the FIPS-197 appendix vectors in the test
suite.

Every S0/S2 frame of a campaign passes through :meth:`AES128.encrypt_block`,
so the encrypt direction uses the 32-bit T-table formulation from Daemen and
Rijmen's Rijndael proposal: SubBytes, ShiftRows and MixColumns of one round
collapse into four table lookups per output column, over four 256-entry
tables (``TE0``..``TE3``) built once at import from the S-box.  The state is
four big-endian 32-bit column words and the key schedule 44 of them.  The
inverse cipher keeps the plain byte-wise FIPS-197 rounds; no protocol mode
uses it (CCM, CMAC, OFB and CTR only encrypt).
"""

from __future__ import annotations

import struct
from typing import List

from ..errors import CryptoError

BLOCK_SIZE = 16
KEY_SIZE = 16
ROUNDS = 10

# -- tables -------------------------------------------------------------------


def _build_sbox() -> tuple:
    """Construct the AES S-box from the finite-field definition."""
    # Multiplicative inverses in GF(2^8) via exponentiation tables on the
    # generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    def inverse(b: int) -> int:
        return 0 if b == 0 else exp[255 - log[b]]

    sbox = []
    for value in range(256):
        b = inverse(value)
        s = b
        for _ in range(4):
            b = ((b << 1) | (b >> 7)) & 0xFF
            s ^= b
        sbox.append(s ^ 0x63)
    return tuple(sbox)


SBOX = _build_sbox()
INV_SBOX = tuple(SBOX.index(i) for i in range(256))

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(value: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _mul(a: int, b: int) -> int:
    """Multiply two field elements in GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_te0() -> tuple:
    """T-table for row 0: SubBytes then the MixColumns column (2s, s, s, 3s)."""
    table = []
    for s in SBOX:
        s2 = _xtime(s)
        table.append(s2 << 24 | s << 16 | s << 8 | (s2 ^ s))
    return tuple(table)


def _rotate_right(table: tuple) -> tuple:
    """The next row's T-table: every word rotated right by one byte."""
    return tuple((w >> 8 | w << 24) & 0xFFFFFFFF for w in table)


TE0 = _build_te0()
TE1 = _rotate_right(TE0)
TE2 = _rotate_right(TE1)
TE3 = _rotate_right(TE2)

#: A 16-byte block as four big-endian 32-bit column words.
_WORDS = struct.Struct(">4I")
_SCHEDULE = struct.Struct(">44I")


# -- key schedule --------------------------------------------------------------


def expand_key(key: bytes) -> List[bytes]:
    """Expand a 16-byte key into the 11 round keys (16 bytes each)."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"AES-128 requires a 16-byte key, got {len(key)}")
    words = list(_WORDS.unpack(key))
    for i in range(4, 4 * (ROUNDS + 1)):
        temp = words[i - 1]
        if i % 4 == 0:
            # RotWord, SubWord and the round constant in one step.
            temp = (
                (SBOX[temp >> 16 & 0xFF] ^ RCON[i // 4 - 1]) << 24
                | SBOX[temp >> 8 & 0xFF] << 16
                | SBOX[temp & 0xFF] << 8
                | SBOX[temp >> 24]
            )
        words.append(words[i - 4] ^ temp)
    return [_WORDS.pack(*words[i : i + 4]) for i in range(0, len(words), 4)]


# -- round operations ----------------------------------------------------------


def _add_round_key(state: List[int], round_key: bytes) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _inv_sub_bytes(state: List[int]) -> None:
    for i in range(16):
        state[i] = INV_SBOX[state[i]]


# State is kept column-major (byte i belongs to row i % 4, column i // 4),
# matching the FIPS-197 byte ordering of the input block.


def _inv_shift_rows(state: List[int]) -> None:
    for row in range(1, 4):
        column_values = [state[row + 4 * col] for col in range(4)]
        shifted = column_values[-row:] + column_values[:-row]
        for col in range(4):
            state[row + 4 * col] = shifted[col]


def _inv_mix_columns(state: List[int]) -> None:
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        state[4 * col + 0] = _mul(a[0], 14) ^ _mul(a[1], 11) ^ _mul(a[2], 13) ^ _mul(a[3], 9)
        state[4 * col + 1] = _mul(a[0], 9) ^ _mul(a[1], 14) ^ _mul(a[2], 11) ^ _mul(a[3], 13)
        state[4 * col + 2] = _mul(a[0], 13) ^ _mul(a[1], 9) ^ _mul(a[2], 14) ^ _mul(a[3], 11)
        state[4 * col + 3] = _mul(a[0], 11) ^ _mul(a[1], 13) ^ _mul(a[2], 9) ^ _mul(a[3], 14)


# -- public API -----------------------------------------------------------------


class AES128:
    """AES-128 with a pre-expanded key schedule."""

    def __init__(self, key: bytes):
        self._round_keys = _SCHEDULE.unpack(b"".join(expand_key(key)))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        rk = self._round_keys
        te0, te1, te2, te3 = TE0, TE1, TE2, TE3
        s0, s1, s2, s3 = _WORDS.unpack(block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        for i in range(4, 4 * ROUNDS, 4):
            k0, k1, k2, k3 = rk[i : i + 4]
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[s1 >> 16 & 255] ^ te2[s2 >> 8 & 255] ^ te3[s3 & 255] ^ k0,
                te0[s1 >> 24] ^ te1[s2 >> 16 & 255] ^ te2[s3 >> 8 & 255] ^ te3[s0 & 255] ^ k1,
                te0[s2 >> 24] ^ te1[s3 >> 16 & 255] ^ te2[s0 >> 8 & 255] ^ te3[s1 & 255] ^ k2,
                te0[s3 >> 24] ^ te1[s0 >> 16 & 255] ^ te2[s1 >> 8 & 255] ^ te3[s2 & 255] ^ k3,
            )
        # The last round has no MixColumns: SubBytes and ShiftRows only.
        k0, k1, k2, k3 = rk[4 * ROUNDS :]
        sb = SBOX
        return _WORDS.pack(
            (sb[s0 >> 24] << 24 | sb[s1 >> 16 & 255] << 16 | sb[s2 >> 8 & 255] << 8 | sb[s3 & 255])
            ^ k0,
            (sb[s1 >> 24] << 24 | sb[s2 >> 16 & 255] << 16 | sb[s3 >> 8 & 255] << 8 | sb[s0 & 255])
            ^ k1,
            (sb[s2 >> 24] << 24 | sb[s3 >> 16 & 255] << 16 | sb[s0 >> 8 & 255] << 8 | sb[s1 & 255])
            ^ k2,
            (sb[s3 >> 24] << 24 | sb[s0 >> 16 & 255] << 16 | sb[s1 >> 8 & 255] << 8 | sb[s2 & 255])
            ^ k3,
        )

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        round_keys = [_WORDS.pack(*self._round_keys[i : i + 4]) for i in range(0, 44, 4)]
        state = list(block)
        _add_round_key(state, round_keys[ROUNDS])
        for r in range(ROUNDS - 1, 0, -1):
            _inv_shift_rows(state)
            _inv_sub_bytes(state)
            _add_round_key(state, round_keys[r])
            _inv_mix_columns(state)
        _inv_shift_rows(state)
        _inv_sub_bytes(state)
        _add_round_key(state, round_keys[0])
        return bytes(state)

    # -- modes of operation ----------------------------------------------------

    def encrypt_ofb(self, iv: bytes, data: bytes) -> bytes:
        """AES-OFB keystream encryption (S0 payload protection).

        OFB is symmetric: applying it twice with the same IV recovers the
        plaintext, so this method also decrypts.
        """
        if len(iv) != BLOCK_SIZE:
            raise CryptoError(f"OFB IV must be 16 bytes, got {len(iv)}")
        out = bytearray()
        feedback = iv
        for offset in range(0, len(data), BLOCK_SIZE):
            feedback = self.encrypt_block(feedback)
            chunk = data[offset : offset + BLOCK_SIZE]
            out += bytes(c ^ k for c, k in zip(chunk, feedback))
        return bytes(out)

    decrypt_ofb = encrypt_ofb

    def encrypt_ctr(self, nonce: bytes, data: bytes) -> bytes:
        """AES-CTR keystream encryption over a 16-byte initial counter."""
        if len(nonce) != BLOCK_SIZE:
            raise CryptoError(f"CTR nonce must be 16 bytes, got {len(nonce)}")
        out = bytearray()
        counter = int.from_bytes(nonce, "big")
        for offset in range(0, len(data), BLOCK_SIZE):
            keystream = self.encrypt_block(counter.to_bytes(16, "big"))
            chunk = data[offset : offset + BLOCK_SIZE]
            out += bytes(c ^ k for c, k in zip(chunk, keystream))
            counter = (counter + 1) % (1 << 128)
        return bytes(out)

    decrypt_ctr = encrypt_ctr

    def cbc_mac(self, data: bytes) -> bytes:
        """Raw CBC-MAC over zero-padded *data* (building block for S0 auth)."""
        mac = bytes(BLOCK_SIZE)
        padded = data + bytes(-len(data) % BLOCK_SIZE)
        for offset in range(0, len(padded), BLOCK_SIZE):
            block = padded[offset : offset + BLOCK_SIZE]
            mac = self.encrypt_block(bytes(m ^ b for m, b in zip(mac, block)))
        return mac
