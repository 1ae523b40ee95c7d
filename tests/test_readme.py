"""The README's Python examples run and give what their comments say."""

import re
from pathlib import Path

import pytest

from hnnrep import LAURENT
from hnnrep.matrix import RingMatrix

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)

# Per block: (an expression of the block, the check its comment states).
CLAIMS = [
    [
        ('normal_form(spec, parse_word("t^-1 x0 t"))',
         lambda v: str(v) == "t^0 · x0 x1 x0^-1"),
        ("center_generator(spec)", lambda v: str(v) == "t t x0 x1"),
        ('rep.eval([("x", 1), ("y", 1)] * 2)',
         lambda v: v == RingMatrix.identity(LAURENT, 4).scalar_mul(LAURENT.s_power(1))),
        ("probe_faithfulness(hnn, 6).ok", lambda v: v is True),
        ("b3.degree", lambda v: v == 24),
    ],
    [
        ("verify_rep(rep, max_len=3).ok", lambda v: v is True),
        ("closure.dimension", lambda v: v == 4),
        ("gg.dimension", lambda v: v == 20),
    ],
]


def test_every_block_has_its_claims():
    assert len(BLOCKS) == len(CLAIMS)


@pytest.mark.parametrize("index", range(len(CLAIMS)))
def test_block_runs_and_its_comments_hold(index):
    source = BLOCKS[index]
    namespace = {}
    exec(compile(source, f"README.md python block {index}", "exec"), namespace)
    for expr, holds in CLAIMS[index]:
        assert expr in source
        assert holds(eval(expr, namespace)), expr
