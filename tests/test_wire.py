import numpy as np
import pytest

from dehash.formats import ContextTag, wire_decode, wire_encode
from dehash.hashing import BinaryCode


def random_code(rng, nbits):
    return BinaryCode.from_bits(rng.integers(0, 2, size=nbits))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "context",
        [
            None,
            ContextTag(),
            ContextTag(gps=(48.25, -122.5)),
            ContextTag(category=7),
            ContextTag(gps=(-33.0, 151.125), category=2),
        ],
    )
    def test_identity(self, context):
        rng = np.random.default_rng(401)
        code = random_code(rng, 100)
        decoded_code, decoded_ctx = wire_decode(wire_encode(code, context))
        assert decoded_code == code
        if context is None or (context.gps is None and context.category is None):
            assert decoded_ctx == ContextTag()
        else:
            assert decoded_ctx.gps == context.gps
            assert decoded_ctx.category == context.category

    def test_many_random_payloads(self):
        rng = np.random.default_rng(403)
        for _ in range(50):
            nbits = int(rng.integers(1, 300))
            code = random_code(rng, nbits)
            ctx = ContextTag(
                gps=(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
                if rng.random() < 0.5
                else None,
                category=int(rng.integers(0, 10)) if rng.random() < 0.5 else None,
            )
            payload = wire_encode(code, ctx)
            decoded_code, decoded_ctx = wire_decode(payload)
            assert decoded_code == code
            assert decoded_ctx.gps == ctx.gps
            assert decoded_ctx.category == ctx.category
            assert wire_encode(decoded_code, decoded_ctx) == payload


class TestSizes:
    def test_payload_arithmetic(self):
        code = BinaryCode.from_bits(np.ones(12800, dtype=np.uint8))
        # magic + u32 bit count + packed bits + flags byte + two float64s
        assert len(wire_encode(code, ContextTag(gps=(1.0, 2.0)))) == 8 + 4 + 1600 + 1 + 16
        assert len(wire_encode(code)) == 8 + 4 + 1600 + 1


class TestErrors:
    # Truncation is checked for every payload in test_formats.py.
    def test_unknown_flags(self):
        rng = np.random.default_rng(409)
        payload = bytearray(wire_encode(random_code(rng, 8)))
        payload[-1] = 0x80
        with pytest.raises(ValueError, match="^payload: .*flags"):
            wire_decode(bytes(payload))

    def test_trailing_garbage(self):
        rng = np.random.default_rng(411)
        payload = wire_encode(random_code(rng, 8)) + b"\x00"
        with pytest.raises(ValueError, match="^payload: .*trailing"):
            wire_decode(payload)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="^payload: .*magic"):
            wire_decode(b"NOTMAGIC" + b"\x00" * 8)

    @pytest.mark.parametrize("gps", [(float("nan"), 7.0), (45.0, float("inf")), (95.0, 400.0),
                                     (-90.5, 0.0), (0.0, -180.25)])
    def test_gps_outside_the_globe_rejected(self, gps):
        payload = wire_encode(random_code(np.random.default_rng(413), 8), ContextTag(gps=(0.0, 0.0)))
        with pytest.raises(ValueError, match="^payload: GPS"):
            wire_decode(payload[:-16] + np.array(gps, dtype="<f8").tobytes())
        with pytest.raises(ValueError, match="^GPS"):
            wire_encode(random_code(np.random.default_rng(413), 8), ContextTag(gps=gps))

    @pytest.mark.parametrize("context", [ContextTag(gps=(1.0, 2.0, 3.0)), ContextTag(category=-1),
                                         ContextTag(category=np.int64(-1)), ContextTag(category=2**32),
                                         ContextTag(category=3.5)])
    def test_context_a_payload_cannot_carry_rejected(self, context):
        with pytest.raises((TypeError, OverflowError)):
            wire_encode(random_code(np.random.default_rng(419), 8), context)

    def test_gps_on_the_edges_accepted(self):
        for gps in [(90.0, 180.0), (-90.0, -180.0), (0.0, 0.0)]:
            code = random_code(np.random.default_rng(417), 8)
            assert wire_decode(wire_encode(code, ContextTag(gps=gps)))[1].gps == gps

    def test_padding_bits_rejected(self):
        # A 10-bit code whose last byte also sets its six unused bits would
        # compare unequal to the same code and sit 6 bits away from it.
        payload = bytearray(wire_encode(BinaryCode(np.array([0x5A, 0x03], dtype=np.uint8), 10)))
        payload[13] |= 0xFC
        with pytest.raises(ValueError, match="^payload: .*bits past"):
            wire_decode(bytes(payload))
