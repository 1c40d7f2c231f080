"""README examples run as written, so a removed name cannot linger there."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(capsys):
    text = README.read_text()
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README quick tour", "exec"), {})
    assert capsys.readouterr().out.count("\n") == code.count("print(")
