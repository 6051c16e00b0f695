"""DESIGN.md's package inventory (section 4) names the tree as it is."""

from __future__ import annotations

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")


def _inventory():
    """{entry: [module, ...]} from the fenced block of section 4. An entry
    is ``name.py`` or ``name/`` at the start of a line (indented under
    ``src/repro/`` for the package's own); its modules are the
    comma-separated names that follow, parentheses being commentary. An
    entry whose text is prose (tests/, benchmarks/) lists nothing."""
    with open(os.path.join(ROOT, "DESIGN.md")) as f:
        text = f.read()
    section = text[text.index("## 4. Package inventory"):
                   text.index("## 5. ")]
    block = section.split("```")[1]
    entries, texts, prefix = {}, {}, ""
    current = None
    for line in block.splitlines():
        if not line.strip():
            continue
        if line == "src/repro/":
            prefix = "src/repro/"
            continue
        if not line.startswith(" " * 4):
            name, _, rest = line.strip().partition(" ")
            if not line.startswith("  "):
                prefix = ""
            current = prefix + name
            texts[current] = [rest]
        else:
            texts[current].append(line)
    for entry, parts in texts.items():
        body = re.sub(r"\([^)]*\)", "", " ".join(parts))
        names = [n.strip() for n in body.split(",")]
        if entry.endswith("/") and all(re.fullmatch(r"\w+", n) for n in names):
            entries[entry] = names
        else:
            entries[entry] = []
    return entries


def test_every_listed_path_exists():
    entries = _inventory()
    assert "src/repro/ixp/" in entries and "examples/" in entries
    missing = []
    for entry, modules in entries.items():
        if not os.path.exists(os.path.join(ROOT, entry)):
            missing.append(entry)
        missing += [entry + m + ".py" for m in modules
                    if not os.path.isfile(os.path.join(ROOT, entry, m + ".py"))]
    assert not missing, "DESIGN.md section 4 names paths that do not exist: %s" % missing


def test_every_module_is_listed():
    entries = _inventory()
    unlisted = []
    for name in sorted(os.listdir(SRC)):
        path = os.path.join(SRC, name)
        if name.endswith(".py") and name != "__init__.py":
            if "src/repro/" + name not in entries:
                unlisted.append(name)
        elif os.path.isfile(os.path.join(path, "__init__.py")):
            listed = entries.get("src/repro/%s/" % name, [])
            unlisted += ["%s/%s" % (name, f) for f in sorted(os.listdir(path))
                         if f.endswith(".py") and f != "__init__.py"
                         and f[:-3] not in listed]
    assert not unlisted, "DESIGN.md section 4 omits: %s" % unlisted
