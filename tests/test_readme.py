"""README's "Library entry points" block runs as written, and each of its
lines whose comment is a Python literal evaluates to that literal."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_points_block_runs_and_gives_its_commented_values():
    block = re.search(r"## Library entry points\n\n```python\n(.*?)```",
                      README.read_text(), re.S).group(1)
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):  # prose, not a value
            continue
        assert eval(code, namespace) == expected, line
        checked.append(code.strip())
    assert "canonical_invariant(P)[0]" in checked
    assert "galois_signature(reconstruct((2, 3), GF(7))).cycles" in checked
    assert "conic_bundle_ranks(CycleSignature(((5, -1),)))" in checked
