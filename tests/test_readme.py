"""The README's Library example runs against the current API and prints
the line its trailing comment shows."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example():
    code = _library_block()
    # the comment after the print call: "# <printed line>   -- <remark>"
    (comment,) = [line for line in code.splitlines() if line.startswith("# ")]
    want = comment[2:].split("  --")[0].rstrip()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == want + "\n"


def test_readme_lists_the_exports():
    import types

    import sphecke

    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- `\w+`:(.*?)(?=^- |^\n)", section, re.S | re.M)
    listed = [name for item in items for name in re.findall(r"`(\w+)`", item)]
    exported = [
        name for name, value in vars(sphecke).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(exported)


def test_readme_layout_lists_the_modules():
    section = README.read_text(encoding="utf-8").split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("src/sphecke/\n", 1)[1].split("\ntests/\n", 1)[0]
    listed = re.findall(r"^  (\S+\.py) ", block, re.M)
    on_disk = [p.name for p in (README.parent / "src" / "sphecke").glob("*.py")]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(on_disk)
