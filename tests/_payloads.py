"""Hypothesis strategies for malformed reader input: raw bytes, arbitrary
text, and near-valid tables whose fields are drawn from edge-case tokens."""

from hypothesis import strategies as st

FIELDS = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", "1e999", "0x10", "1_0", " 1", "+1", "9" * 5000,
                     "١", "\x00", "lda", "max_prob", "#", "="]),
    st.text(max_size=6),
)


def _encode(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def table_payloads(header: str):
    """File contents: bytes, text, or ``header`` over rows of edge-case fields."""
    rows = st.lists(st.lists(FIELDS, max_size=8).map(",".join), max_size=5)
    return st.one_of(
        st.binary(max_size=200),
        st.text(max_size=200).map(_encode),
        rows.map(lambda body: _encode("\n".join([header, *body]))),
    )


def config_payloads(header: str, keys):
    """Config text: arbitrary, or ``header`` over ``key = fields`` lines."""
    line = st.tuples(st.sampled_from(keys), st.lists(FIELDS, max_size=4).map(" ".join))
    body = st.lists(line.map(lambda kv: f"{kv[0]} = {kv[1]}"), max_size=6)
    return st.one_of(st.text(max_size=200), body.map(lambda ls: "\n".join([header, *ls])))
