"""Property-based tests of the HTTP/1.1 request framing.

Whatever bytes a client sends, ``read_http_request`` ends in one of
three ways: a request whose body is exactly its ``Content-Length``
bytes, ``None`` (a clean close before any byte), or an ``HttpError``
the server answers with a 4xx and a closed connection.  Any other
exception, or a read that never finishes, is a framing bug.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.http import HttpError, HttpRequest, read_http_request

VALID = (
    b"POST /recommend?debug=1 HTTP/1.1\r\n"
    b"Host: localhost\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 13\r\n"
    b"\r\n"
    b'{"user_id":3}'
)

# Pieces of request heads, legal and not, so that joined runs reach
# past the request line far more often than uniform bytes do.
FRAGMENTS = [
    b"GET", b"POST", b" ", b"  ", b"\t", b"/", b"/recommend", b"?a=1",
    b"HTTP/1.1", b"HTTP/1.0", b"HTTP/1.", b"HTTP/2", b"\r\n", b"\r", b"\n",
    b"\x00", b":", b": ", b"Content-Length", b"content-length",
    b"Transfer-Encoding", b"chunked", b"Connection", b"close",
    b"Expect", b"100-continue", b"0", b"2", b"7", b"13", b"+7", b"-0",
    b"0" * 30, b"9" * 30, b"9" * 4400, b"\xff", b"{}", b'{"user_id":3}',
]


@st.composite
def mutated_requests(draw):
    """VALID, maybe with another Content-Length value, then with a few
    bytes replaced, inserted or deleted."""
    length = draw(st.sampled_from([b"13", *FRAGMENTS]))
    data = bytearray(VALID.replace(b"Length: 13", b"Length: " + length))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        chunk = draw(st.binary(min_size=1, max_size=4) | st.sampled_from(FRAGMENTS))
        if edit == "insert":
            data[at:at] = chunk
        elif edit == "replace":
            data[at : at + len(chunk)] = chunk
        else:
            del data[at : at + draw(st.integers(1, 8))]
    return bytes(data)


fragment_runs = st.lists(st.sampled_from(FRAGMENTS), max_size=24).map(b"".join)


def read(data: bytes):
    """``read_http_request`` over a stream holding *data*, then EOF."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await asyncio.wait_for(read_http_request(reader), 1.0)

    return asyncio.run(run())


def assert_framed(data: bytes) -> None:
    try:
        request = read(data)
    except HttpError as error:
        assert 400 <= error.status < 500, (error.status, data)
        return
    if request is None:
        assert data == b""
        return
    assert isinstance(request, HttpRequest)
    assert len(request.body) == int(request.headers.get("content-length", "0"))


class TestReadHttpRequestProperties:
    def test_the_valid_request_parses(self):
        request = read(VALID)
        assert (request.method, request.path, request.body) == (
            "POST", "/recommend", b'{"user_id":3}'
        )

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        assert_framed(data)

    @settings(max_examples=300, deadline=None)
    @given(mutated_requests())
    def test_mutated_valid_request(self, data):
        assert_framed(data)

    @settings(max_examples=300, deadline=None)
    @given(fragment_runs)
    def test_runs_of_head_fragments(self, data):
        assert_framed(data)
