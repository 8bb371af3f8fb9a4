import doctest
import re
from pathlib import Path

from corelat import verify

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_readme_lists_every_verify_suite_and_its_flags():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|.*\| (.*) \|$", section, re.M)
    assert tuple(name for name, _ in rows) == verify.THEOREMS
    for name, reads in rows:
        assert tuple(re.findall(r"`(--\w+)`", reads)) == verify.SUITES[name], name
