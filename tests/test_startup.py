"""Importing the library stays cheap: no ``dataclasses``, and through it no ``inspect``.

``import dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and decorating a class execs its generated methods; the
library's records are ``typing.NamedTuple``s or plain classes instead.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: nothing that site imports can hide or fake what the library loads
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import a1bordism; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_library_source_does_not_mention_dataclass():
    files = sorted((SRC / "a1bordism").glob("*.py"))
    assert files
    assert [f.name for f in files if "dataclass" in f.read_text(encoding="utf-8")] == []
