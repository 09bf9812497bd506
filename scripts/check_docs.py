#!/usr/bin/env python
"""Docs check: documented python code blocks and the examples execute.

Extracts every fenced ```python block from README.md and the docs/*.md
listed below and runs each one in a fresh interpreter (with ``src`` on
the path), then runs every example under ``examples/`` except
``reproduce_paper.py``, whose report writer tier-1's ``TestPaperContract``
already runs.  Any failure prints the offending snippet and exits
non-zero.  Used by CI and runnable locally:

    python scripts/check_docs.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Documents whose ```python blocks must execute.  README blocks must
#: exist (the quickstart is load-bearing); other docs may have none.
DOCS = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "docs" / "scenarios.md",
    REPO_ROOT / "docs" / "api.md",
    REPO_ROOT / "docs" / "testing.md",
    REPO_ROOT / "docs" / "robustness.md",
    REPO_ROOT / "docs" / "performance.md",
    REPO_ROOT / "docs" / "distributed.md",
    REPO_ROOT / "docs" / "static-analysis.md",
]
EXAMPLES = [
    REPO_ROOT / "examples" / "quickstart.py",
    REPO_ROOT / "examples" / "custom_policy_plugin.py",
    REPO_ROOT / "examples" / "multi_tenant_cluster.py",
    REPO_ROOT / "examples" / "scheduling_policies.py",
    REPO_ROOT / "examples" / "batch_inference_backlog.py",
    REPO_ROOT / "examples" / "capacity_planning.py",
]

BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def run_snippet(code: str, label: str) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.NamedTemporaryFile(
        "w", suffix=".py", prefix="docs_check_", delete=False
    ) as handle:
        handle.write(code)
        path = handle.name
    try:
        proc = subprocess.run(
            [sys.executable, path],
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
    finally:
        os.unlink(path)
    if proc.returncode != 0:
        print(f"FAIL {label}")
        print("--- snippet ---")
        print(code)
        print("--- stderr ---")
        print(proc.stderr)
        return False
    print(f"ok   {label}")
    return True


def main() -> int:
    ok = True
    for doc in DOCS:
        rel = doc.relative_to(REPO_ROOT)
        blocks = BLOCK_RE.findall(doc.read_text())
        if not blocks and doc.name == "README.md":
            print("error: no ```python blocks found in README.md", file=sys.stderr)
            return 1
        for i, block in enumerate(blocks, 1):
            ok &= run_snippet(block, f"{rel} python block {i}/{len(blocks)}")
    for example in EXAMPLES:
        ok &= run_snippet(example.read_text(), str(example.relative_to(REPO_ROOT)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
