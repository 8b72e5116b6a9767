"""Tests for the binary image codec (:mod:`repro.image.codec`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_program
from repro.image.codec import (
    CODEC_VERSION,
    MAGIC,
    CodecError,
    decode_residual,
    decode_template,
    encode_residual,
    encode_template,
    load_image,
    save_image,
)
from repro.lang import parse_program
from repro.rtcg import make_generating_extension
from repro.runtime.values import NIL, UNSPECIFIED, datum_to_value
from repro.sexp.datum import Char, sym
from repro.vm.disasm import disassemble
from repro.vm.instructions import Op
from repro.vm.template import Template
from tests.strategies import arith_exprs, data, higher_order_exprs, list_exprs

POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"


def _template_of(source: str) -> Template:
    program = parse_program(source)
    compiled = compile_program(program)
    return compiled.templates[program.goal]


class TestValueRoundTrip:
    """Literal values survive encode/decode exactly."""

    def _roundtrip_literal(self, value):
        t = Template(
            code=((Op.CONST, 0), (Op.RETURN,)),
            literals=(value,),
            arity=0,
            nlocals=0,
            name="lit",
        )
        return decode_template(encode_template(t)).literals[0]

    @pytest.mark.parametrize(
        "value",
        [
            0,
            -1,
            2**80,
            -(2**80),
            True,
            False,
            1.5,
            -0.0,
            "",
            "héllo",
            Char("a"),
            Char("\n"),
            NIL,
            UNSPECIFIED,
            sym("a-symbol"),
            datum_to_value([1, [2, "x"], sym("y")]),
        ],
    )
    def test_atoms_and_lists(self, value):
        from repro.runtime.values import scheme_equal

        out = self._roundtrip_literal(value)
        assert scheme_equal(out, value)
        # Type is preserved exactly: no bool/int or int/float merging.
        assert type(out) is type(value)

    def test_symbols_decode_interned(self):
        out = self._roundtrip_literal(sym("power"))
        assert out is sym("power")

    def test_improper_list(self):
        from repro.runtime.values import Pair

        value = Pair(1, Pair(2, 3))
        out = self._roundtrip_literal(value)
        assert out.car == 1 and out.cdr.car == 2 and out.cdr.cdr == 3

    def test_prim_decodes_to_the_live_spec(self):
        from repro.lang.prims import PRIMITIVES

        out = self._roundtrip_literal(PRIMITIVES[sym("+")])
        assert out is PRIMITIVES[sym("+")]

    def test_deep_list_does_not_overflow_the_stack(self):
        deep = datum_to_value(list(range(50_000)))
        out = self._roundtrip_literal(deep)
        node = out
        for expected in range(3):
            assert node.car == expected
            node = node.cdr

    def test_unencodable_literal_fails_loudly(self):
        t = Template(
            code=((Op.CONST, 0), (Op.RETURN,)),
            literals=(object(),),
            arity=0,
            nlocals=0,
            name="bad",
        )
        with pytest.raises(CodecError, match="cannot encode"):
            encode_template(t)

    @given(value=data)
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_data_round_trips(self, value):
        from repro.runtime.values import scheme_equal

        rt_value = datum_to_value(value)
        out = self._roundtrip_literal(rt_value)
        assert scheme_equal(out, rt_value)


class TestTemplateRoundTrip:
    def test_power_template(self):
        t = _template_of(POWER)
        t2 = decode_template(encode_template(t))
        assert disassemble(t) == disassemble(t2)
        assert (t2.arity, t2.nlocals, t2.name) == (t.arity, t.nlocals, t.name)

    def test_nested_templates(self):
        t = _template_of(
            "(define (make-adder n) (lambda (x) (+ x n)))"
        )
        t2 = decode_template(encode_template(t))
        assert disassemble(t) == disassemble(t2)

    @given(expr=st.one_of(arith_exprs(), list_exprs(), higher_order_exprs()))
    @settings(max_examples=60, deadline=None)
    def test_assemble_encode_decode_disasm_is_identity(self, expr):
        """The satellite property: assemble -> encode -> decode ->
        disassemble is byte-identical to disassembling the original, for
        hypothesis-generated programs."""
        t = _template_of(f"(define (main) {expr})")
        assert disassemble(decode_template(encode_template(t))) == disassemble(t)


class TestFraming:
    def test_bad_magic(self):
        data = bytearray(encode_template(_template_of(POWER)))
        data[:4] = b"NOPE"
        with pytest.raises(CodecError, match="magic"):
            decode_template(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(encode_template(_template_of(POWER)))
        data[4:6] = (CODEC_VERSION + 1).to_bytes(2, "big")
        with pytest.raises(CodecError, match="version"):
            decode_template(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(CodecError, match="too short"):
            decode_template(MAGIC + b"\x00")

    def test_truncated_payload(self):
        data = encode_template(_template_of(POWER))
        with pytest.raises(CodecError, match="length mismatch"):
            decode_template(data[:-3])

    @pytest.mark.parametrize("offset_from_payload", [0, 1, 7, 40])
    def test_every_corrupted_byte_is_rejected_by_crc(
        self, offset_from_payload
    ):
        data = bytearray(encode_template(_template_of(POWER)))
        header = 14  # magic 4 + version 2 + length 4 + crc 4
        data[header + offset_from_payload] ^= 0xFF
        with pytest.raises(CodecError, match="CRC mismatch"):
            decode_template(bytes(data))

    def test_trailing_garbage_is_rejected(self):
        # Valid frame whose payload parses but leaves bytes behind: the
        # decoder must not silently ignore them.  Rebuild the frame with
        # an extended payload so the CRC is consistent.
        import struct
        import zlib

        data = encode_template(_template_of(POWER))
        payload = data[14:] + b"\x00"
        framed = struct.pack(
            ">4sHII", MAGIC, CODEC_VERSION, len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(CodecError, match="trailing"):
            decode_template(framed)

    @pytest.mark.parametrize("opnum", [0, 14, 64])
    def test_opcode_outside_the_base_isa_is_rejected(self, opnum):
        # Images carry the base ISA only; 64 is the first fused opcode,
        # a run-time-only representation that is never persisted.
        t = Template(
            code=((int(Op.CONST), 0), (int(Op.RETURN),)),
            literals=(1,), arity=0, nlocals=0, name="t",
        )
        data = encode_template(t)
        assert decode_template(data).code == t.code
        bad = Template(
            code=((opnum, 0), (int(Op.RETURN),)),
            literals=(1,), arity=0, nlocals=0, name="t",
        )
        with pytest.raises(CodecError, match=f"unknown opcode {opnum}"):
            decode_template(encode_template(bad))

    def test_not_a_template_payload(self):
        gen = make_generating_extension(POWER, "DS", goal="power")
        img = encode_residual(gen.to_object_code([3]))
        with pytest.raises(CodecError, match="not a template"):
            decode_template(img)


class TestResidualRoundTrip:
    # The acceptance corpus: object-code residual programs across
    # strategies, closures, and workload shapes.
    CORPUS = [
        (POWER, "DS", "power", ["5"], ["2"], "duplicate"),
        (POWER, "DS", "power", ["0"], ["9"], "duplicate"),
        (
            "(define (f d) (+ (if (zero? d) 1 2) 10))",
            "D", None, [], ["0"], "join",
        ),
        (
            "(define (apply-n f n x)"
            " (if (zero? n) x (apply-n f (- n 1) (f x))))"
            "(define (main n x) (apply-n (lambda (y) (* y y)) n x))",
            "SD", "main", ["3"], ["2"], "duplicate",
        ),
        (
            "(define (lookup key alist)"
            " (if (null? alist) #f"
            "  (if (eq? key (car (car alist))) (cadr (car alist))"
            "   (lookup key (cdr alist)))))",
            "DS", "lookup", ["((a 1) (b 2))"], ["b"], "duplicate",
        ),
    ]

    @pytest.mark.parametrize(
        "source,sig,goal,static,dynamic,dif", CORPUS
    )
    def test_decode_encode_runs_identically(
        self, source, sig, goal, static, dynamic, dif
    ):
        from repro.runtime.values import scheme_equal
        from repro.sexp import read

        gen = make_generating_extension(source, sig, goal=goal)
        statics = [datum_to_value(read(s)) for s in static]
        dynamics = [datum_to_value(read(d)) for d in dynamic]
        rp = gen.to_object_code(statics, dif_strategy=dif)
        rp2 = decode_residual(encode_residual(rp))
        assert rp2.fingerprint() == rp.fingerprint()
        assert scheme_equal(rp2.run(dynamics), rp.run(dynamics))
        assert rp2.stats["loaded_from_image"]

    def test_source_residual_round_trips(self):
        gen = make_generating_extension(POWER, "DS", goal="power")
        rs = gen.to_source([4])
        rs2 = decode_residual(encode_residual(rs))
        assert rs2.fingerprint() == rs.fingerprint()
        assert rs2.run([3]) == 81

    def test_goal_and_params_survive(self):
        gen = make_generating_extension(POWER, "DS", goal="power")
        rp = gen.to_object_code([4])
        rp2 = decode_residual(encode_residual(rp))
        assert rp2.goal is rp.goal
        assert rp2.goal_params == rp.goal_params

    def test_fingerprint_digest_checked_on_decode(self):
        """Tampering that keeps the frame valid (re-computed CRC) is still
        caught by the embedded fingerprint digest."""
        import struct
        import zlib

        gen = make_generating_extension(POWER, "DS", goal="power")
        img = encode_residual(gen.to_object_code([3]))
        payload = bytearray(img[14:])
        # Flip a byte deep in the payload (inside template code, past the
        # digest string near the start).
        payload[-2] ^= 0x01
        reframed = struct.pack(
            ">4sHII", MAGIC, CODEC_VERSION, len(payload),
            zlib.crc32(bytes(payload)),
        ) + bytes(payload)
        with pytest.raises(CodecError):
            decode_residual(reframed)

    def test_stale_primitive_rejected(self):
        from repro.lang.prims import PRIMITIVES

        t = Template(
            code=((Op.CONST, 0), (Op.RETURN,)),
            literals=(PRIMITIVES[sym("+")],),
            arity=0,
            nlocals=0,
            name="p",
        )
        data = bytearray(encode_template(t))
        # Rewrite the primitive's name in place: "+" -> "~" (same length),
        # then fix the CRC so only the decoder's prim lookup can object.
        import struct
        import zlib

        payload = bytearray(data[14:])
        idx = payload.rindex(b"\x01+")  # length-1 string "+"
        payload[idx + 1] = ord("~")
        reframed = struct.pack(
            ">4sHII", MAGIC, CODEC_VERSION, len(payload),
            zlib.crc32(bytes(payload)),
        ) + bytes(payload)
        with pytest.raises(CodecError, match="stale image"):
            decode_template(reframed)


class TestFileHelpers:
    def test_save_and_load_image(self, tmp_path):
        gen = make_generating_extension(POWER, "DS", goal="power")
        rp = gen.to_object_code([6])
        path = tmp_path / "power6.rpoi"
        digest = save_image(rp, path)
        assert len(digest) == 64
        rp2 = load_image(path)
        assert rp2.run([2]) == 64

    def test_load_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "junk.rpoi"
        path.write_bytes(b"this is not an image at all")
        with pytest.raises(CodecError):
            load_image(path)
