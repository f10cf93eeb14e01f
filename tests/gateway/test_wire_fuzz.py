"""A seeded byte-level mutator at the HTTP boundary.

Request bodies are outside input: whatever bytes arrive, the decoder
either accepts them or raises a :mod:`repro.errors` type the gateway
maps to 400 — never another exception (a 500), never a call into
``pickle`` — and it keeps decoding good frames afterwards.
"""

from __future__ import annotations

import http.client
import json
import pickle

import numpy as np
import pytest

from repro.errors import ReproError
from repro.formats import COO, GroupCOO
from repro.gateway import GatewayClient
from repro.gateway.wire import (
    WireDecoder,
    WireEncoder,
    http_status,
    unpack_frame,
)
from repro.utils.rng import rng

TRIALS = 2400


def _operands():
    generator = np.random.default_rng(17)
    dense = np.where(generator.random((16, 16)) < 0.3, generator.standard_normal((16, 16)), 0.0)
    return {
        "A": GroupCOO.from_dense(dense, group_size=4),
        "I": np.arange(64, dtype=np.int64),  # repeated: blob, then blob_store, then cached
        "B": generator.standard_normal((16, 4)),
        "tiny": np.arange(3.0),
        "alpha": 2.5,
    }


def _corpus():
    """``(content_type, body, warm-up)`` triples: each body decodes on a
    decoder that has first decoded the bodies at the ``warm-up`` indices."""
    operands, encoder = _operands(), WireEncoder()
    other = {"A": COO.from_dense(np.eye(8) * 3.0), "x": np.ones(32)}
    frames = [encoder.encode_request("e", operands) for _ in range(3)]
    frames.append(encoder.encode_batch([("e", operands), ("f", other), ("e", operands)]))
    kinds = json.dumps([unpack_frame(body)[0] for _, body in frames])
    for kind in ("pattern_store", "pattern", "blob", "blob_store", "cached", "inline"):
        assert f'["{kind}",' in kinds, kind
    corpus = [(*frame, list(range(index))) for index, frame in enumerate(frames)]
    corpus.append((*WireEncoder().encode_request("e", operands, binary=False), []))
    corpus.append((*WireEncoder().encode_batch([("e", operands), ("f", other)], binary=False), []))
    return corpus


def _mutate(generator, body: bytes, donor: bytes) -> bytes:
    data = bytearray(body)

    def position():  # half of all mutations land in the first 600 bytes: the header
        span = min(len(data), 600) if generator.random() < 0.5 else len(data)
        return int(generator.integers(0, span))

    choice = generator.integers(0, 3)
    if choice == 0:  # truncation
        return bytes(data[: position()])
    if choice == 1:  # bit flips
        for _ in range(int(generator.integers(1, 9))):
            data[position()] ^= 1 << int(generator.integers(0, 8))
        return bytes(data)
    start = position()  # splice: a slice of another body, or noise, over a slice of this one
    length = int(generator.integers(1, 64))
    if generator.random() < 0.5:
        source = int(generator.integers(0, max(1, len(donor) - length)))
        patch = donor[source : source + length]
    else:
        patch = generator.integers(0, 256, size=length, dtype=np.uint8).tobytes()
    data[start : start + int(generator.integers(0, 64))] = patch
    return bytes(data)


def _fuzz(seed, corpus) -> list[str]:
    """Outcome of every trial: ``"accepted"`` or the raised error's type name."""
    generator = rng(seed, "gateway/wire-fuzz")
    operands = _operands()
    good_type, good_body = corpus[0][:2]  # a cold encoder's first frame: self-contained
    outcomes = []
    for _ in range(TRIALS):
        content_type, body, warm_up = corpus[int(generator.integers(0, len(corpus)))]
        donor = corpus[int(generator.integers(0, len(corpus)))][1]
        decoder = WireDecoder()
        for index in warm_up:
            decoder.decode_request(*corpus[index][:2])
        try:
            decoder.decode_request(content_type, _mutate(generator, body, donor))
            outcomes.append("accepted")
        except ReproError as error:
            assert http_status(error) == 400, repr(error)
            outcomes.append(type(error).__name__)
        # Whatever it saw, the decoder still decodes a good frame correctly.
        ((_, decoded),) = decoder.decode_request(good_type, good_body)
        np.testing.assert_array_equal(decoded["A"].values, operands["A"].values)
        np.testing.assert_array_equal(decoded["I"], operands["I"])
        assert decoded["alpha"] == 2.5
    return outcomes


def test_mutated_bodies_are_accepted_or_400(seed, monkeypatch):
    corpus = _corpus()  # once: identity tokens, and so the bytes, differ per build
    outcomes = _fuzz(seed, corpus)
    assert len(outcomes) == TRIALS >= 2000
    assert {"accepted", "WireFormatError"} <= set(outcomes)  # the mutator bites, and not always

    def unreachable(*args, **kwargs):
        raise AssertionError("pickle reached from an HTTP body")

    monkeypatch.setattr(pickle, "loads", unreachable)
    monkeypatch.setattr(pickle, "load", unreachable)
    monkeypatch.setattr(pickle, "Unpickler", unreachable)
    assert _fuzz(seed, corpus) == outcomes  # nothing on this path ever called them


def test_live_gateway_answers_400_and_serves_the_next_connection(open_gateway, spmm_operands):
    _, server = open_gateway
    content_type, body = WireEncoder().encode_request("C[m,n] += A[m,k] * B[k,n]", spmm_operands)
    bad_bodies = {
        "cut inside the header": body[:40],
        "cut inside the payload": body[:-100],
        "a flipped bit in a descriptor kind": body.replace(b'["blob"', b'["blnb"', 1),
        "a flipped bit in a dtype": body.replace(b'"<f8"', b'"<v8"', 1),
    }
    for what, bad in bad_bodies.items():
        assert bad != body, what
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("POST", "/v1/submit", body=bad, headers={"Content-Type": content_type})
        response = conn.getresponse()
        document = json.loads(response.read())
        conn.close()
        assert response.status == 400, (what, document)
        assert document["error"]["type"] == "WireFormatError", (what, document)
    with GatewayClient(server.url("")) as client:
        out = client.submit("C[m,n] += A[m,k] * B[k,n]", **spmm_operands).result(timeout=60)
    assert out.shape == (32, 8)
