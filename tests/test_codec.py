"""Erasure code construction, encoding, peeling on the package's engine,
and the bad-code gate."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_peel as ref
from daoracle import cit, codec
from daoracle.errors import ParameterError

from conftest import code_to_text, peel_rows, planted_weak_code
from gf2 import solve_erasure
from test_geometry import BLOCK_LENS, grid_params


def codeword_of(code, inputs):
    """The codeword of the equal-length byte strings ``inputs``, as uint8
    rows."""
    rows = np.frombuffer(b"".join(inputs), dtype=np.uint8).reshape(len(inputs), -1)
    return codec.encode_array(code, rows)


def equation_xor(rows, eq):
    """The XOR of the rows of ``eq``'s members."""
    return np.bitwise_xor.reduce(rows[list(eq)], axis=0)


def erased(cw, keep):
    """A copy of the rows ``cw`` with each row outside ``keep`` zeroed, and
    the bool mask of ``keep``."""
    known = np.zeros(len(cw), dtype=bool)
    known[list(keep)] = True
    sym = cw.copy()
    sym[~known] = 0
    return sym, known


def as_known(cw, keep):
    """The rows ``keep`` of ``cw`` as the dict ``gf2.solve_erasure`` reads."""
    return {int(i): cw[i].tobytes() for i in keep}


class TestGenerate:
    def test_single_input_degenerates_to_repetition(self):
        code = codec.generate_code(1, "1/4", 8, seed=77)
        assert code.n_coded == 4
        assert list(code.parity_checks) == [
            (0, 1),
            (0, 2),
            (0, 3),
        ]

    def test_reference_base_code_shape(self):
        code = codec.generate_code(8, "1/4", 8, seed=42)
        assert code.n_coded == 32
        assert len(code.parity_checks) == 24
        degrees = [len(eq) for eq in code.parity_checks]
        assert max(degrees) <= 8 and min(degrees) >= 2

    def test_identical_inputs_identical_codes(self):
        a = codec.generate_code(8, "1/4", 8, seed=123)
        b = codec.generate_code(8, "1/4", 8, seed=123)
        assert code_to_text(a) == code_to_text(b)
        assert a == b

    def test_every_symbol_covered(self):
        for seed in range(5):
            code = codec.generate_code(16, "1/2", 6, seed=seed)
            touched = set()
            for eq in code.parity_checks:
                touched.update(eq)
            assert touched == set(range(code.n_coded))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            codec.generate_code(0, "1/4", 8, seed=0)
        with pytest.raises(ParameterError):
            codec.generate_code(8, "1/4", 1, seed=0)
        with pytest.raises(ParameterError):
            codec.generate_code(8, "2/3", 8, seed=0)
        with pytest.raises(ParameterError):
            codec.generate_code(8, "1/1", 8, seed=0)


class TestEncode:
    def test_zero_inputs_zero_codeword(self):
        code = codec.generate_code(8, "1/4", 8, seed=1)
        out = codec.encode_array(code, np.zeros((8, 16), dtype=np.uint8))
        assert out.shape == (32, 16) and not out.any()

    def test_repetition_copies_the_input(self):
        code = codec.generate_code(1, "1/4", 8, seed=1)
        out = codeword_of(code, [b"\xab" * 8])
        assert out.shape == (4, 8) and (out == 0xAB).all()

    def test_parity_equations_hold_on_random_input(self):
        code = codec.generate_code(8, "1/4", 8, seed=9)
        rng = np.random.default_rng(0)
        inputs = [rng.bytes(32) for _ in range(8)]
        out = codeword_of(code, inputs)
        assert [row.tobytes() for row in out[:8]] == inputs
        for eq in code.parity_checks:
            assert not equation_xor(out, eq).any()

    def test_length_mismatch(self):
        code = codec.generate_code(4, "1/2", 4, seed=2)
        with pytest.raises(ParameterError):
            codec.encode_array(code, np.zeros((3, 2), dtype=np.uint8))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(3, 12),
        st.sampled_from(["1/2", "1/4"]),
        st.integers(0, 2**32),
        st.data(),
    )
    def test_systematic_and_sound_property(self, k, rate, seed, data):
        code = codec.generate_code(k, rate, 6, seed=seed)
        width = data.draw(st.integers(1, 8))
        inputs = [
            data.draw(st.binary(min_size=width, max_size=width)) for _ in range(k)
        ]
        out = codeword_of(code, inputs)
        assert [row.tobytes() for row in out[:k]] == inputs
        for eq in code.parity_checks:
            assert not equation_xor(out, eq).any()


def test_encode_rows_gives_the_rows_of_encode_array():
    """``codec.encode_rows``, the int encoder of the digest layers, gives
    ``codec.encode_array``'s rows for the code of every digest layer of the geometry grid, ungated (the gate
    only picks among seeds), on rows with leading zero bytes, all-zero
    rows and an all-zero layer, each kept q * 32 bytes wide."""
    rng = np.random.default_rng(16)
    seen = set()
    for params in grid_params():
        ungated = dataclasses.replace(params, gate_trials=0)
        for block_len in BLOCK_LENS:
            try:
                sizes = cit.geometry(params, block_len).sizes
            except ParameterError:
                continue
            for m in sizes[:-1]:
                key = (params.rate, params.max_eq_degree, params.code_seed, m)
                if key in seen:
                    continue
                seen.add(key)
                code = cit.layer_code(ungated, m)
                k = code.n_systematic
                width = params.batch * 32
                rows = rng.integers(0, 256, (k, width), dtype=np.uint8)
                for i, lead in enumerate(rng.integers(0, width + 1, k)):
                    rows[i, :lead] = 0  # lead == width is an all-zero row
                for inputs in (rows, np.zeros_like(rows)):
                    got = codec.encode_rows(code, [row.tobytes() for row in inputs])
                    assert [len(row) for row in got] == [width] * m
                    assert b"".join(got) == codec.encode_array(code, inputs).tobytes()
    assert len(seen) >= 60


class TestPeel:
    """The package's peeling engine driven over values by
    ``conftest.peel_rows``, against GF(2) elimination."""

    def test_all_known_consistent_is_identity(self):
        code = codec.generate_code(8, "1/4", 8, seed=3)
        out = codeword_of(code, [bytes([i]) * 8 for i in range(8)])
        sym, known = out.copy(), np.ones(32, dtype=bool)
        assert peel_rows(code, sym, known) == ("decoded", -1)
        assert np.array_equal(sym, out)

    def test_eighth_erased_matches_elimination_oracle(self):
        code = codec.generate_code(8, "1/4", 8, seed=42)
        rng = np.random.default_rng(7)
        out = codeword_of(code, [rng.bytes(8) for _ in range(8)])
        erasures = {1, 13, 22, 30}  # 4 of 32 = 1 - 0.875
        keep = [i for i in range(32) if i not in erasures]
        sym, known = erased(out, keep)
        assert peel_rows(code, sym, known) == ("decoded", -1)
        status, solution = solve_erasure(code, as_known(out, keep))
        assert status == "decoded"
        assert [row.tobytes() for row in sym] == [solution[i] for i in range(32)]

    def test_corrupted_symbol_yields_violation(self):
        code = codec.generate_code(8, "1/4", 8, seed=4)
        out = codeword_of(code, [bytes([i]) * 4 for i in range(8)])
        out[9, 0] ^= 1
        status, e = peel_rows(code, out, np.ones(32, dtype=bool))
        assert status == "violation"
        eq = code.parity_checks[e]
        assert 9 in eq
        assert equation_xor(out, eq).any()

    def test_violation_never_decodes(self):
        # a fully known, corrupted equation must surface even when the rest
        # of the codeword is intact
        code = codec.generate_code(6, "1/2", 5, seed=11)
        out = codeword_of(code, [bytes([i]) * 4 for i in range(6)])
        for member in code.parity_checks[2]:
            broken = out.copy()
            broken[member, 0] ^= 0xFF
            status, _e = peel_rows(code, broken, np.ones(12, dtype=bool))
            assert status == "violation"

    def test_empty_known_is_stuck(self):
        code = codec.generate_code(4, "1/2", 4, seed=5)
        known = np.zeros(8, dtype=bool)
        assert peel_rows(code, np.zeros((8, 4), dtype=np.uint8), known) == ("stuck", -1)
        assert not known.any()

    def test_deterministic_violation_choice(self):
        code = codec.generate_code(8, "1/4", 8, seed=6)
        out = codeword_of(code, [bytes([i]) * 4 for i in range(8)])
        out[0, 0] ^= 1
        results = {
            peel_rows(code, out.copy(), np.ones(32, dtype=bool)) for _ in range(3)
        }
        assert len(results) == 1 and results.pop()[0] == "violation"

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_peel_agrees_with_oracle_on_random_patterns(self, seed, data):
        code = codec.generate_code(6, "1/2", 5, seed=seed)
        rng = np.random.default_rng(seed)
        out = codeword_of(code, [rng.bytes(4) for _ in range(6)])
        keep = data.draw(st.sets(st.integers(0, 11), min_size=1))
        sym, known = erased(out, keep)
        result, _e = peel_rows(code, sym, known)
        status, solution = solve_erasure(code, as_known(out, keep))
        assert status != "inconsistent"
        if result == "decoded":
            # peeling success implies a unique solution identical to the
            # eliminator's; peeling may be weaker, never wrong
            assert status == "decoded"
            assert [row.tobytes() for row in sym] == [solution[i] for i in range(12)]
        else:
            assert result == "stuck"


def test_oracle_agreement_randomized_at_n32():
    # beyond the exhaustive n <= 16 sweep: random patterns on a larger code
    code = codec.generate_code(8, "1/4", 8, seed=77)
    rng = np.random.default_rng(77)
    out = codeword_of(code, [rng.bytes(8) for _ in range(8)])
    for _ in range(300):
        keep = np.nonzero(rng.random(32) > rng.uniform(0.05, 0.5))[0]
        sym, known = erased(out, keep)
        result, _e = peel_rows(code, sym, known)
        assert result != "violation"
        if result == "decoded":
            status, solution = solve_erasure(code, as_known(out, keep))
            assert status == "decoded"
            assert [row.tobytes() for row in sym] == [solution[i] for i in range(32)]


class TestUndecodableRatio:
    def test_repetition_ratio_is_one(self):
        code = codec.generate_code(1, "1/4", 8, seed=0)
        est = ref.estimate_undecodable_ratio(code, trials=16, rng_seed=1)
        assert est.ratio == 1.0
        assert est.trials == 16
        assert not codec.is_bad_code(code, 1.0, trials=16, rng_seed=1)

    def test_reference_codes_clear_the_gate(self):
        # operating point: codes must withstand 12.5% erasure
        for seed in range(6):
            code = codec.generate_code(8, "1/4", 8, seed=seed)
            assert not codec.is_bad_code(code, 0.125, trials=32, rng_seed=seed)

    def test_planted_weak_code_is_flagged(self):
        weak = planted_weak_code()
        est = ref.estimate_undecodable_ratio(weak, trials=64, rng_seed=3)
        assert est.ratio < 0.125
        assert codec.is_bad_code(weak, 0.125, trials=64, rng_seed=3)

    def test_estimate_deterministic_in_seed(self):
        code = codec.generate_code(8, "1/4", 8, seed=5)
        ratio = ref.estimate_undecodable_ratio(code, trials=24, rng_seed=9).ratio
        verdicts = []
        for alpha in (ratio / 2, ratio, math.nextafter(ratio, 2.0), 1.0):
            first = codec.is_bad_code(code, alpha, trials=24, rng_seed=9)
            assert codec.is_bad_code(code, alpha, trials=24, rng_seed=9) == first
            verdicts.append(first)
        # both verdicts are reached: the gate flips just above the minimum
        assert verdicts == [False, False, True, True]


def test_canonical_text_is_sorted_and_stable():
    code = codec.generate_code(4, "1/2", 4, seed=8)
    text = code_to_text(code)
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    assert all(line.split() == sorted(line.split(), key=int) for line in lines)


def test_canonical_text_golden():
    import hashlib

    text = code_to_text(codec.generate_code(8, "1/4", 8, seed=42))
    assert len(text.splitlines()) == 24
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "a36032f4bdd86fe000e2f10bd7a7d2c13993e73ef99922305f27101b90a663b8"
    )
