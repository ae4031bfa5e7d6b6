"""The README's package layout names every module of the package, and no other."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_package_layout_names_every_module():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    layout = re.search(r"## Package layout\n\n```\nsrc/dpnpsim/\n(.*?)```", text, re.DOTALL).group(1)
    listed = re.findall(r"^  (\w+\.py) ", layout, re.MULTILINE)
    modules = sorted(n for n in os.listdir(os.path.join(ROOT, "src", "dpnpsim")) if n.endswith(".py"))
    assert sorted(listed) == [n for n in modules if n != "__init__.py"]
