"""Drift guard: every command the docs quote still names something.

A deleted entry point must not live on in the documentation, so each
``python -m <module>`` quoted below must resolve to an importable
module and each ``python <path>.py`` must name a file in the repo.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md")
MODULE = re.compile(r"\bpython3?\s+-m\s+([A-Za-z_][\w.]*)")
SCRIPT = re.compile(r"\bpython3?\s+([\w./-]+\.py)\b")


def _quoted(pattern):
    return sorted({(doc, match.rstrip("."))
                   for doc in DOCS
                   for match in pattern.findall(
                       (ROOT / doc).read_text(encoding="utf-8"))})


def _resolves(module):
    try:
        return importlib.util.find_spec(module) is not None
    except ImportError:
        return False


def test_the_guard_sees_the_report_and_the_gate():
    assert ("EXPERIMENTS.md", "repro.experiments.report") in \
        _quoted(MODULE)
    assert ("README.md", "scripts/bench_gate.py") in _quoted(SCRIPT)


@pytest.mark.parametrize("doc,module", _quoted(MODULE))
def test_quoted_module_resolves(doc, module):
    assert _resolves(module), f"{doc} quotes python -m {module}"


@pytest.mark.parametrize("doc,script", _quoted(SCRIPT))
def test_quoted_script_exists(doc, script):
    assert (ROOT / script).is_file(), f"{doc} quotes python {script}"
